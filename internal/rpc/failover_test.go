package rpc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"forkwatch/internal/clock"
)

// rpcStub serves a canned JSON-RPC response (or HTTP failure) and counts
// hits.
type rpcStub struct {
	status int
	body   string
	hold   chan struct{} // when set, answers wait until it closes
	hits   atomic.Int64
}

func (s *rpcStub) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.hits.Add(1)
		if s.hold != nil {
			<-s.hold
		}
		if s.status != http.StatusOK {
			w.WriteHeader(s.status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, s.body)
	}
}

const okBody = `{"jsonrpc":"2.0","id":1,"result":"0x2a"}`

func newFC(t *testing.T, cfg FailoverConfig) *FailoverClient {
	t.Helper()
	fc, err := NewFailoverClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fc.Close)
	return fc
}

// TestFailoverSwitchesEndpoints: a draining first endpoint is skipped
// over; the healthy second answers; the outcome records the failover.
func TestFailoverSwitchesEndpoints(t *testing.T) {
	bad := &rpcStub{status: http.StatusServiceUnavailable}
	good := &rpcStub{status: http.StatusOK, body: okBody}
	s1 := httptest.NewServer(bad.handler())
	defer s1.Close()
	s2 := httptest.NewServer(good.handler())
	defer s2.Close()

	fc := newFC(t, FailoverConfig{Endpoints: []string{s1.URL + "/eth", s2.URL + "/eth"}})
	var hex string
	out, err := fc.Call(&hex, "eth_blockNumber")
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if hex != "0x2a" {
		t.Fatalf("result %q", hex)
	}
	if out.Class != ClassOK || out.Failovers != 1 || out.Endpoint != s2.URL+"/eth" {
		t.Fatalf("outcome %+v, want ok after 1 failover to the good endpoint", out)
	}

	// The draining endpoint is now marked down: the next request goes to
	// the healthy one first, no failover needed.
	out, err = fc.Call(&hex, "eth_blockNumber")
	if err != nil || out.Failovers != 0 {
		t.Fatalf("second call did not prefer the healthy endpoint: %+v err %v", out, err)
	}
	st := fc.Stats()
	if st.Requests != 2 || st.Failovers != 1 || st.ByClass[ClassOK] != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFailoverClassifiesTypedErrors: every typed server error lands in
// its documented class, and infrastructure classes fail over while
// caller-fault classes do not.
func TestFailoverClassifiesTypedErrors(t *testing.T) {
	cases := []struct {
		code      int
		data      string
		wantClass string
		failsOver bool
	}{
		{ErrCodeStorage, "read-only", ClassReadOnly, true},
		{ErrCodeStorage, "transient", ClassStorage, true},
		{ErrCodeTimeout, "", ClassTimeout, true},
		{ErrCodeOverloaded, "", ClassOverloaded, true},
		{ErrCodeUnavailable, "circuit-open", ClassCircuitOpen, true},
		{ErrCodeInvalidParams, "", ClassRPCError, false},
	}
	for _, tc := range cases {
		body := fmt.Sprintf(`{"jsonrpc":"2.0","id":1,"error":{"code":%d,"message":"boom"`, tc.code)
		if tc.data != "" {
			body += fmt.Sprintf(`,"data":%q`, tc.data)
		}
		body += `}}`
		erring := &rpcStub{status: http.StatusOK, body: body}
		good := &rpcStub{status: http.StatusOK, body: okBody}
		s1 := httptest.NewServer(erring.handler())
		s2 := httptest.NewServer(good.handler())
		fc := newFC(t, FailoverConfig{Endpoints: []string{s1.URL + "/eth", s2.URL + "/eth"}})

		var hex string
		out, err := fc.Call(&hex, "eth_blockNumber")
		if tc.failsOver {
			if err != nil || out.Failovers != 1 || out.Class != ClassOK {
				t.Errorf("code %d: outcome %+v err %v, want failover to success", tc.code, out, err)
			}
			if st := fc.Stats(); st.ByClass[tc.wantClass] != 0 {
				// Per-request tallies record the FINAL class; the
				// intermediate classification is visible through the
				// endpoint state instead.
				t.Errorf("code %d: intermediate class %q tallied as final", tc.code, tc.wantClass)
			}
		} else {
			rpcErr, ok := err.(*Error)
			if !ok || rpcErr.Code != tc.code || out.Class != tc.wantClass || out.Failovers != 0 {
				t.Errorf("code %d: outcome %+v err %v, want class %q with no failover", tc.code, out, err, tc.wantClass)
			}
			if erring.hits.Load() == 0 || good.hits.Load() != 0 {
				t.Errorf("code %d: caller-fault error leaked to the second endpoint", tc.code)
			}
		}
		s1.Close()
		s2.Close()
		fc.Close()
	}
}

// TestFailoverAllEndpointsFail: when every endpoint fails the final
// class is reported honestly (no invented success).
func TestFailoverAllEndpointsFail(t *testing.T) {
	b1 := &rpcStub{status: http.StatusServiceUnavailable}
	b2 := &rpcStub{status: http.StatusServiceUnavailable}
	s1 := httptest.NewServer(b1.handler())
	defer s1.Close()
	s2 := httptest.NewServer(b2.handler())
	defer s2.Close()
	fc := newFC(t, FailoverConfig{Endpoints: []string{s1.URL + "/eth", s2.URL + "/eth"}})

	var hex string
	out, err := fc.Call(&hex, "eth_blockNumber")
	if err == nil {
		t.Fatal("call against all-down endpoints succeeded")
	}
	if out.Class != ClassDraining || out.Failovers != 1 {
		t.Fatalf("outcome %+v, want draining after exhausting both endpoints", out)
	}
	if st := fc.Stats(); st.ByClass[ClassDraining] != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFailoverDegradedTag: a staleness-tagged success is surfaced as
// ClassDegraded with the lag, and still decodes the result.
func TestFailoverDegradedTag(t *testing.T) {
	stale := &rpcStub{status: http.StatusOK,
		body: `{"jsonrpc":"2.0","id":1,"result":"0x2a","staleness":17}`}
	s1 := httptest.NewServer(stale.handler())
	defer s1.Close()
	fc := newFC(t, FailoverConfig{Endpoints: []string{s1.URL + "/eth"}})

	var hex string
	out, err := fc.Call(&hex, "eth_blockNumber")
	if err != nil || hex != "0x2a" {
		t.Fatalf("degraded call: %v %q", err, hex)
	}
	if out.Class != ClassDegraded || !out.Tagged || out.Staleness != 17 {
		t.Fatalf("outcome %+v, want degraded with staleness 17", out)
	}
}

// TestFailoverProtocolViolation: a 200 with a non-JSON-RPC body is a
// protocol violation, never silently treated as data.
func TestFailoverProtocolViolation(t *testing.T) {
	garbage := &rpcStub{status: http.StatusOK, body: `<html>ok</html>`}
	s1 := httptest.NewServer(garbage.handler())
	defer s1.Close()
	fc := newFC(t, FailoverConfig{Endpoints: []string{s1.URL + "/eth"}})

	var hex string
	out, err := fc.Call(&hex, "eth_blockNumber")
	if err == nil || out.Class != ClassProtocol {
		t.Fatalf("outcome %+v err %v, want a protocol violation", out, err)
	}
}

// TestFailoverHedging: when the preferred endpoint stalls past the hedge
// delay on the client's clock, the request is hedged to the next endpoint
// and its answer wins while the first is still stalled.
func TestFailoverHedging(t *testing.T) {
	slow := &rpcStub{status: http.StatusOK, body: okBody, hold: make(chan struct{})}
	fast := &rpcStub{status: http.StatusOK, body: okBody}
	s1 := httptest.NewServer(slow.handler())
	defer s1.Close()
	defer close(slow.hold)
	s2 := httptest.NewServer(fast.handler())
	defer s2.Close()
	clk := clock.NewFake()
	const hedge = 20 * time.Millisecond
	fc := newFC(t, FailoverConfig{
		Endpoints:  []string{s1.URL + "/eth", s2.URL + "/eth"},
		HedgeDelay: hedge,
		Clock:      clk,
	})

	type result struct {
		out Outcome
		err error
	}
	res := make(chan result, 1)
	go func() {
		var hex string
		out, err := fc.Call(&hex, "eth_blockNumber")
		res <- result{out, err}
	}()
	for slow.hits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	clk.Advance(hedge - time.Millisecond)
	if fast.hits.Load() != 0 {
		t.Fatal("hedged before the hedge delay")
	}
	clk.Advance(time.Millisecond)
	r := <-res
	if r.err != nil {
		t.Fatalf("Call: %v", r.err)
	}
	if !r.out.Hedged || r.out.Endpoint != s2.URL+"/eth" {
		t.Fatalf("outcome %+v, want the hedged fast endpoint to win", r.out)
	}
	if st := fc.Stats(); st.Hedged != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFailoverHealthLoop: the background /readyz poll demotes a
// not-ready endpoint so requests prefer the ready one without having to
// fail first.
func TestFailoverHealthLoop(t *testing.T) {
	mux1 := http.NewServeMux()
	notReady := rpcStub{status: http.StatusOK, body: okBody}
	mux1.Handle("/eth", notReady.handler())
	mux1.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]bool{"ready": false})
	})
	mux2 := http.NewServeMux()
	ready := rpcStub{status: http.StatusOK, body: okBody}
	mux2.Handle("/eth", ready.handler())
	mux2.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]bool{"ready": true})
	})
	s1 := httptest.NewServer(mux1)
	defer s1.Close()
	s2 := httptest.NewServer(mux2)
	defer s2.Close()

	clk := clock.NewFake()
	const interval = 10 * time.Millisecond
	fc := newFC(t, FailoverConfig{
		Endpoints:      []string{s1.URL + "/eth", s2.URL + "/eth"},
		HealthInterval: interval,
		Clock:          clk,
	})
	// The poll runs inside Advance, one interval after the client starts.
	clk.Advance(interval - time.Millisecond)
	if fc.eps[0].state.Load() != epHealthy {
		t.Fatal("health poll ran before its interval")
	}
	clk.Advance(time.Millisecond)
	if fc.eps[0].state.Load() != epDegraded {
		t.Fatal("health poll never demoted the not-ready endpoint")
	}
	if clk.Pending() != 1 {
		t.Fatalf("%d timers pending, want the next poll", clk.Pending())
	}
	fc.Close()
	if clk.Pending() != 0 {
		t.Fatal("Close left the next health poll armed")
	}

	var hex string
	out, err := fc.Call(&hex, "eth_blockNumber")
	if err != nil || out.Endpoint != s2.URL+"/eth" || out.Failovers != 0 {
		t.Fatalf("outcome %+v err %v, want the ready endpoint preferred without failover", out, err)
	}
	if notReady.hits.Load() != 0 {
		t.Fatal("request was sent to the endpoint the health loop demoted")
	}
}
