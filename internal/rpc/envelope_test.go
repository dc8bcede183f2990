package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"forkwatch/internal/chain"
	"forkwatch/internal/live/feed"
)

// Response is the JSON-RPC response object as encoding/json marshals it:
// the model encodeBody must reproduce byte for byte, and the shape the
// tests decode answers into.
type Response struct {
	JSONRPC   string          `json:"jsonrpc"`
	ID        json.RawMessage `json:"id"`
	Result    any             `json:"result,omitempty"`
	Error     *Error          `json:"error,omitempty"`
	Staleness *uint64         `json:"staleness,omitempty"`
}

// modelResponse is an answer as the envelope struct; a missing id is
// an explicit null.
func modelResponse(a answer) *Response {
	id := a.id
	if len(id) == 0 {
		id = json.RawMessage("null")
	}
	r := &Response{JSONRPC: Version, ID: id}
	if a.err != nil {
		r.Error = a.err
	} else {
		r.Result = json.RawMessage(a.result)
	}
	if a.stale {
		lag := a.lag
		r.Staleness = &lag
	}
	return r
}

// modelEnvelope is the value the parent server marshalled: one
// response object, or for a batch a slice of them.
func modelEnvelope(answers []answer, batch bool) any {
	if !batch {
		return modelResponse(answers[0])
	}
	rs := make([]*Response, 0, len(answers))
	for _, a := range answers {
		rs = append(rs, modelResponse(a))
	}
	return rs
}

// modelBody is the re-marshalling encoder: json.Marshal over the
// envelope structs, and a typed internal error when that fails.
func modelBody(answers []answer, batch bool) []byte {
	enc, err := json.Marshal(modelEnvelope(answers, batch))
	if err != nil {
		enc, _ = json.Marshal(modelResponse(answer{err: Errf(ErrCodeInternal, "marshalling response: %v", err)}))
	}
	return enc
}

// modelWrite is the model of writeBody: json.Encoder output, newline
// included.
func modelWrite(answers []answer, batch bool) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(modelEnvelope(answers, batch))
	return buf.Bytes()
}

// modelServe answers an HTTP body the way the server must: decoded by
// DecodeRequests, every call run straight against its method, results
// marshalled once, and the envelope marshalled by the model. lag, when
// non-nil, is the route's degraded-mode staleness. ok is false when the
// body gets no content.
func modelServe(t *testing.T, be *Backend, body string, lag *uint64) (want []byte, ok bool) {
	t.Helper()
	reqs, errs, isBatch, topErr := DecodeRequests([]byte(body), maxBatch)
	if topErr != nil {
		return modelWrite([]answer{{err: topErr}}, false), true
	}
	var answers []answer
	for i, req := range reqs {
		if errs[i] != nil {
			answers = append(answers, answer{id: req.ID, err: errs[i]})
			continue
		}
		if req.IsNotification() {
			continue
		}
		a := answer{id: req.ID}
		if spec, found := methods[req.Method]; !found {
			a.err = Errf(ErrCodeMethodNotFound, "method %q not found", req.Method)
		} else if result, rpcErr := spec.fn(context.Background(), be, req.Params); rpcErr != nil {
			a.err = rpcErr
		} else {
			a.result = mustMarshal(t, result)
		}
		if lag != nil {
			a.stale, a.lag = true, *lag
		}
		answers = append(answers, a)
	}
	if len(answers) == 0 {
		return nil, false
	}
	return modelBody(answers, isBatch), true
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// envelopeIDs are id tokens the envelope must re-encode exactly as
// encoding/json does: numbers, null, and strings holding HTML-escaped
// bytes, U+2028/U+2029 and escapes that compaction leaves alone.
var envelopeIDs = []string{
	`1`, `0`, `-7`, `1.5e3`, `18446744073709551616`, `null`, `true`,
	`"abc"`, `""`, `"<a&b>"`, "\"line\u2028sep\u2029\"", `"\u003c\/\n\"\\"`,
	`"tab	in"`, `"sp ace"`, "\"\xe2\x80\"", "\"\xff\"",
}

// TestEnvelopeMatchesModel sends every method's real call on the test
// archive through the server — first a cache miss, then a hit — under
// each id, healthy and degraded, singly and as one batch with a
// notification, an unknown method and a malformed entry, and requires
// each body to be the bytes the re-marshalling model produces.
func TestEnvelopeMatchesModel(t *testing.T) {
	eth, _, srv := newTestPair(t)
	rt := srv.routes["eth"]
	f := feed.NewFeed(srv.Registry(), 8)
	for n := uint64(0); n < 3; n++ {
		f.Publish(feed.Event{Kind: feed.KindHead, Head: &feed.HeadEvent{Chain: "ETH", Number: n, Difficulty: "1"}})
	}
	rt.be.SetLive(&LiveSource{Feed: f, Snapshot: func() any { return map[string]any{"days": 3, "note": "<&>"} }})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	b1, _ := eth.BlockByNumber(1)
	txHash := b1.Txs[0].Hash().Hex()
	calls := []string{
		`"eth_blockNumber","params":[]`,
		`"eth_getBlockByNumber","params":["0x1",true]`,
		`"eth_getBlockByNumber","params":["latest",false]`,
		`"eth_getBlockByNumber","params":["0x63",false]`,
		`"eth_getBlockByNumber","params":["0x10zz",false]`,
		`"eth_getBlockByHash","params":["` + b1.Hash().Hex() + `",true]`,
		`"eth_getTransactionByHash","params":["` + txHash + `"]`,
		`"eth_getTransactionReceipt","params":["` + txHash + `"]`,
		`"eth_getBalance","params":["` + alice.Hex() + `","latest"]`,
		`"eth_getTransactionCount","params":["` + alice.Hex() + `","0x1"]`,
		`"fork_difficultyWindow","params":["0x0","0x3"]`,
		`"fork_echoCandidates","params":["0x0","0x3"]`,
		`"fork_poolShares","params":["0x0","0x3"]`,
		`"fork_liveEvents","params":["events",0,2]`,
		`"fork_liveSnapshot","params":[]`,
		`"eth_mystery","params":[]`,
	}

	check := func(t *testing.T, body string, lag *uint64) {
		t.Helper()
		want, ok := modelServe(t, rt.be, body, lag)
		resp, got := postJSON(t, ts.URL+"/eth", body)
		if !ok {
			if resp.StatusCode != http.StatusNoContent || len(got) != 0 {
				t.Fatalf("%s: status %d body %q, want 204 and no body", body, resp.StatusCode, got)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", body, got, want)
		}
	}
	run := func(t *testing.T, lag *uint64) {
		var batch []string
		n := len(envelopeIDs)
		for i, c := range calls {
			for _, id := range []string{envelopeIDs[i%n], envelopeIDs[(i+7)%n]} {
				one := `{"jsonrpc":"2.0","id":` + id + `,"method":` + c + `}`
				check(t, one, lag) // a miss the first time round
				check(t, one, lag) // then a hit
				batch = append(batch, one)
			}
		}
		batch = append(batch,
			`{"jsonrpc":"2.0","method":"eth_blockNumber","params":[]}`,
			`{"bogus":true}`,
			`{"jsonrpc":"2.0","id":"x","method":"eth_blockNumber","params":{}}`)
		check(t, "["+strings.Join(batch, ",")+"]", lag)
		check(t, `[{"jsonrpc":"2.0","method":"eth_blockNumber","params":[]}]`, lag)
		check(t, `{"jsonrpc":"2.0","method":"eth_blockNumber","params":[]}`, lag)
		for _, bad := range []string{`{"jsonrpc":"2.0","id":1,`, ``, `[]`, `{"jsonrpc":"1.0","id":"<>","method":"x"}`,
			`{"jsonrpc":"2.0","id":{ "a" : "<" },"method":"x","extra":1}`} {
			check(t, bad, lag)
		}
	}
	t.Run("healthy", func(t *testing.T) { run(t, nil) })
	lag := uint64(12)
	rt.be.SetStaleness(func() (uint64, bool) { return lag, true })
	t.Run("degraded", func(t *testing.T) { run(t, &lag) })
	rt.be.SetStaleness(func() (uint64, bool) { return 3, false })
	t.Run("caught up", func(t *testing.T) { run(t, nil) })
}

// TestEncodeBodyErrorsAndTimeouts covers the bodies no healthy method
// produces: errors with data, an error that cannot be encoded, and the
// timeout replies in both request shapes.
func TestEncodeBodyErrorsAndTimeouts(t *testing.T) {
	withData := Errf(ErrCodeUnavailable, "storage circuit open on %s", "eth")
	withData.Data = "circuit-open"
	structured := Errf(ErrCodeStorage, "storage error: <torn>")
	structured.Data = map[string]any{"segment": 3, "why": "a&b"}
	broken := Errf(ErrCodeInternal, "x")
	broken.Data = make(chan int)
	ok := []byte(`{"a":"\u003c"}`)
	for _, tc := range []struct {
		name    string
		answers []answer
		batch   bool
	}{
		{"data", []answer{{id: json.RawMessage(`5`), err: withData}}, false},
		{"structured data", []answer{{id: json.RawMessage(`"q"`), err: structured, stale: true, lag: 1}}, false},
		{"unencodable error", []answer{{id: json.RawMessage(`5`), err: broken}}, false},
		{"unencodable in batch", []answer{{id: json.RawMessage(`1`), result: ok}, {err: broken}}, true},
		{"mixed batch", []answer{{id: json.RawMessage(`1`), result: ok}, {err: withData}, {id: json.RawMessage(`"<"`), result: ok, stale: true}}, true},
	} {
		if got, want := encodeBody(tc.answers, tc.batch), modelBody(tc.answers, tc.batch); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, want)
		}
	}

	srv := NewServer(ServerConfig{Workers: 1, RequestTimeout: 250 * time.Millisecond})
	defer srv.Close()
	e := Errf(ErrCodeTimeout, "request timed out after %s", srv.cfg.RequestTimeout)
	for _, body := range []string{
		`{"jsonrpc":"2.0","id":"<1>","method":"eth_blockNumber"}`,
		`{"jsonrpc":"2.0","method":"eth_blockNumber"}`,
		`[{"jsonrpc":"2.0","id":1,"method":"a"},{"jsonrpc":"2.0","method":"b"},{"jsonrpc":"2.0","id":null,"method":"c"}]`,
		`[{"jsonrpc":"2.0","method":"b"}]`,
	} {
		reqs, _, isBatch, _ := DecodeRequests([]byte(body), maxBatch)
		var answers []answer
		for _, req := range reqs {
			if !isBatch || !req.IsNotification() {
				answers = append(answers, answer{id: req.ID, err: e})
			}
		}
		rec := httptest.NewRecorder()
		writeBody(rec, srv.timeoutBody(reqs, isBatch))
		if got, want := rec.Body.Bytes(), modelWrite(answers, isBatch); !bytes.Equal(got, want) {
			t.Errorf("timeout body for %s:\n got %s\nwant %s", body, got, want)
		}
	}
}

// FuzzResponseEnvelope: every id DecodeRequests accepts, paired with any
// result bytes a method's json.Marshal can produce, encodes to exactly
// the model's bytes — alone, degraded, as an error and in a batch.
func FuzzResponseEnvelope(f *testing.F) {
	for i, id := range envelopeIDs {
		f.Add([]byte(`{"jsonrpc":"2.0","id":`+id+`,"method":"m"}`), []byte(fmt.Sprintf(`{"n":%d,"s":"<&>\u2028"}`, i)))
	}
	f.Add([]byte(`[{"jsonrpc":"2.0","id":1,"method":"a"},{"jsonrpc":"2.0","id":"\u003c","method":"b"},{"x":1}]`), []byte(`[ 1, "a" ]`))
	f.Add([]byte(`{"jsonrpc":"2.0","id":{ "a" : [1, 2] },"method":"x","extra":true}`), []byte(`null`))
	// Appended difficulty windows: empty, and across 2^64 under a name
	// json.Marshal escapes.
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	window := []*chain.Block{
		{Header: &chain.Header{Number: 1, Time: 13, Difficulty: new(big.Int).Sub(two64, big.NewInt(1))}},
		{Header: &chain.Header{Number: 2, Time: 26, Difficulty: two64}},
		{Header: &chain.Header{Number: 3, Time: 39}},
	}
	f.Add([]byte(`{"jsonrpc":"2.0","id":"<w>","method":"fork_difficultyWindow"}`), []byte(encodeWindow("ETH", nil)))
	f.Add([]byte(`[{"jsonrpc":"2.0","id":9,"method":"fork_difficultyWindow"}]`), []byte(encodeWindow("E<T>&\u2028", window)))
	f.Fuzz(func(t *testing.T, body, raw []byte) {
		reqs, errs, _, topErr := DecodeRequests(body, maxBatch)
		if topErr != nil || !json.Valid(raw) {
			return
		}
		// What the cache holds for a result whose encoding is raw.
		result, err := json.Marshal(json.RawMessage(raw))
		if err != nil {
			t.Fatal(err)
		}
		var all []answer
		for i, req := range reqs {
			for _, a := range []answer{
				{id: req.ID, result: result},
				{id: req.ID, result: result, stale: true, lag: uint64(i) << 40},
				{id: req.ID, err: Errf(ErrCodeInvalidParams, "bad %s", req.ID)},
				{id: req.ID, err: errs[i]},
			} {
				if a.err == nil && a.result == nil {
					continue // no decode error to answer with
				}
				if got, want := encodeBody([]answer{a}, false), modelBody([]answer{a}, false); !bytes.Equal(got, want) {
					t.Fatalf("id %q:\n got %s\nwant %s", req.ID, got, want)
				}
				all = append(all, a)
			}
		}
		if len(all) > 0 {
			if got, want := encodeBody(all, true), modelBody(all, true); !bytes.Equal(got, want) {
				t.Fatalf("batch:\n got %s\nwant %s", got, want)
			}
		}
	})
}
