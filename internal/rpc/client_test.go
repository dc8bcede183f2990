package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOneEndpointCallTable pins what Call returns from a one-endpoint
// client for every shape of answer. The want columns were recorded from
// the single-endpoint rpc.Client this client replaced (PR 19), run
// against these same stubs: nil + value, *Error with the server's code
// (or -32012 for a bare 429), or a plain error. The only row that moved
// is the class: a 503 is now "draining" rather than a decode failure.
func TestOneEndpointCallTable(t *testing.T) {
	const ok = `{"jsonrpc":"2.0","id":1,"result":"0x2a"}`
	cases := []struct {
		name     string
		status   int
		body     string
		delay    time.Duration
		wantOut  string
		wantCode int  // non-zero: *Error with this code
		wantErr  bool // plain (non-*Error) error
		class    string
	}{
		{"ok", 200, ok, 0, "0x2a", 0, false, ClassOK},
		{"rpc error", 200, `{"jsonrpc":"2.0","id":1,"error":{"code":-32602,"message":"bad"}}`, 0, "", ErrCodeInvalidParams, false, ClassRPCError},
		{"typed storage", 200, `{"jsonrpc":"2.0","id":1,"error":{"code":-32010,"message":"storage","data":"read-only"}}`, 0, "", ErrCodeStorage, false, ClassReadOnly},
		{"429", 429, "server saturated, retry later\n", 0, "", ErrCodeOverloaded, false, ClassOverloaded},
		{"503", 503, "server draining\n", 0, "", 0, true, ClassDraining},
		{"malformed", 200, `<html>`, 0, "", 0, true, ClassProtocol},
		{"missing result", 200, `{"jsonrpc":"2.0","id":1}`, 0, "", 0, true, ClassProtocol},
		{"null result", 200, `{"jsonrpc":"2.0","id":1,"result":null}`, 0, "", 0, false, ClassOK},
		{"timeout", 200, ok, 300 * time.Millisecond, "", 0, true, ClassTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				time.Sleep(tc.delay)
				w.WriteHeader(tc.status)
				fmt.Fprint(w, tc.body)
			}))
			defer ts.Close()
			cl := newFC(t, FailoverConfig{
				Endpoints:  []string{ts.URL + "/eth"},
				HTTPClient: &http.Client{Timeout: 100 * time.Millisecond},
			})
			var out string
			outc, err := cl.Call(&out, "eth_blockNumber")
			var rpcErr *Error
			switch {
			case tc.wantCode != 0:
				if !errors.As(err, &rpcErr) || rpcErr.Code != tc.wantCode {
					t.Errorf("err = %v, want *Error with code %d", err, tc.wantCode)
				}
			case tc.wantErr:
				if err == nil || errors.As(err, &rpcErr) {
					t.Errorf("err = %v, want a plain error", err)
				}
			case err != nil:
				t.Errorf("err = %v, want nil", err)
			}
			if out != tc.wantOut {
				t.Errorf("out = %q, want %q", out, tc.wantOut)
			}
			if outc.Class != tc.class || outc.Failovers != 0 || outc.Hedged {
				t.Errorf("outcome %+v, want class %q with no failover and no hedge", outc, tc.class)
			}
		})
	}
}

// TestBatchFailsOverAsAWhole: Do hands a batch body to one endpoint at a
// time. A first endpoint that sheds (429), drains (503), answers garbage
// or is not there at all hands the whole batch to the second; an array
// answer from the second is final — class ok whatever its elements say (a
// typed infrastructure error, a missing element) — and sends nothing to a
// third endpoint.
func TestBatchFailsOverAsAWhole(t *testing.T) {
	const batch = `[{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber"},
		{"jsonrpc":"2.0","id":2,"method":"eth_getBalance","params":["0x1","latest"]},
		{"jsonrpc":"2.0","id":3,"method":"eth_gasPrice"}]`
	// answer replies to elements 0 and 1 of the batch and drops the rest.
	var answered atomic.Int64
	answer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		answered.Add(1)
		var reqs []Request
		if err := json.NewDecoder(r.Body).Decode(&reqs); err != nil || len(reqs) != 3 {
			http.Error(w, "want a batch of three", http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, `[{"jsonrpc":"2.0","id":%s,"error":{"code":-32010,"message":"storage"}},{"jsonrpc":"2.0","id":%s,"result":"0x2a"}]`, reqs[1].ID, reqs[0].ID)
	})
	const want = `[{"jsonrpc":"2.0","id":2,"error":{"code":-32010,"message":"storage"}},{"jsonrpc":"2.0","id":1,"result":"0x2a"}]`
	firsts := map[string]http.HandlerFunc{
		"sheds":   func(w http.ResponseWriter, r *http.Request) { http.Error(w, "saturated", http.StatusTooManyRequests) },
		"drains":  func(w http.ResponseWriter, r *http.Request) { http.Error(w, "draining", http.StatusServiceUnavailable) },
		"garbage": func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, `{"not":"a batch"}`) },
	}
	third := &rpcStub{status: http.StatusOK, body: "[]"}
	s3 := httptest.NewServer(third.handler())
	defer s3.Close()
	for _, name := range []string{"sheds", "drains", "garbage", "dead"} {
		t.Run(name, func(t *testing.T) {
			first := "http://127.0.0.1:1"
			if h, ok := firsts[name]; ok {
				s1 := httptest.NewServer(h)
				defer s1.Close()
				first = s1.URL
			}
			s2 := httptest.NewServer(answer)
			defer s2.Close()
			cl := newFC(t, FailoverConfig{Endpoints: []string{first + "/eth", s2.URL + "/eth", s3.URL + "/eth"}})

			raw, outc := cl.Do([]byte(batch))
			if string(raw) != want {
				t.Errorf("body %s, want the second endpoint's answer %s", raw, want)
			}
			if outc.Class != ClassOK || outc.Failovers != 1 || outc.Endpoint != s2.URL+"/eth" {
				t.Errorf("outcome %+v, want class ok from the second endpoint after one failover", outc)
			}
			if st := cl.Stats(); st.Requests != 1 || st.Failovers != 1 || st.ByClass[ClassOK] != 1 {
				t.Errorf("stats %+v, want one request answered after one failover", st)
			}
			if third.hits.Load() != 0 {
				t.Error("a per-element error sent the batch on to a third endpoint")
			}
		})
	}
	if answered.Load() != 4 {
		t.Errorf("second endpoint answered %d batches, want 4", answered.Load())
	}

	// No endpoint answers: the outcome is the last endpoint's shed.
	s1 := httptest.NewServer(firsts["sheds"])
	defer s1.Close()
	cl := newFC(t, FailoverConfig{Endpoints: []string{"http://127.0.0.1:1/eth", s1.URL + "/eth"}})
	if _, outc := cl.Do([]byte(batch)); outc.Class != ClassOverloaded || outc.Failovers != 1 {
		t.Errorf("exhausted batch: outcome %+v, want class overloaded after one failover", outc)
	}

	// A server refusing the batch itself answers one envelope: that is the
	// caller's fault, final, and no other endpoint is asked.
	refuse := &rpcStub{status: http.StatusOK, body: `{"jsonrpc":"2.0","id":null,"error":{"code":-32600,"message":"batch too large"}}`}
	s4 := httptest.NewServer(refuse.handler())
	defer s4.Close()
	cl = newFC(t, FailoverConfig{Endpoints: []string{s4.URL + "/eth", s3.URL + "/eth"}})
	if raw, outc := cl.Do([]byte(batch)); outc.Class != ClassRPCError || string(raw) != refuse.body {
		t.Errorf("refused batch: outcome %+v body %s, want class rpc_error and the server's envelope", outc, raw)
	}
	if third.hits.Load() != 0 {
		t.Error("a refused batch was retried on another endpoint")
	}
}
