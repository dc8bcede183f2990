// Package rpc is forkwatch's serving layer: a from-scratch JSON-RPC 2.0
// server (HTTP transport, batch requests, typed errors) exposing an
// Ethereum-flavoured archive API over the KV-backed chain store, one
// endpoint per chain — the way the paper ran a paired ETH and ETC node
// and "export[ed] every block and transaction to a database" through
// their RPC interfaces.
//
// Production-shape internals, not a toy mux:
//
//   - a bounded worker pool with queue-depth backpressure: when the queue
//     is full the transport answers 429 with Retry-After instead of
//     letting goroutines pile up;
//   - one LRU response cache per route, keyed on the canonical request
//     encoding, bounded by fixed entry and byte counts, and tagged with
//     the chain's head generation, so a head change invalidates every
//     cached answer at once;
//   - token-bucket rate limiting per client;
//   - request timeouts and body/batch size limits, so a stalled storage
//     read can never hang a client;
//   - an internal/metrics registry (per-method counters and latency
//     histograms, queue gauges, cache hit/miss, storage db.Stats)
//     surfaced at /debug/metrics.
//
// Storage faults surface as typed JSON-RPC errors (ErrCodeStorage), never
// panics: the backends thread every store error up through the codec.
package rpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Version is the fixed JSON-RPC protocol version.
const Version = "2.0"

// JSON-RPC 2.0 error codes (spec section 5.1) plus forkwatch's
// implementation-defined server errors in the -32000..-32099 range.
const (
	ErrCodeParse          = -32700
	ErrCodeInvalidRequest = -32600
	ErrCodeMethodNotFound = -32601
	ErrCodeInvalidParams  = -32602
	ErrCodeInternal       = -32603

	// ErrCodeNotFound reports a block/state the archive does not have.
	ErrCodeNotFound = -32001
	// ErrCodeStorage reports a failed or corrupt read from the chain's
	// key-value store (injected storage faults land here).
	ErrCodeStorage = -32010
	// ErrCodeTimeout reports a request that exceeded the server's
	// execution deadline (e.g. behind a stalled storage device).
	ErrCodeTimeout = -32011
	// ErrCodeOverloaded reports a request shed inside a batch when the
	// server is saturated (whole-request shedding uses HTTP 429).
	ErrCodeOverloaded = -32012
	// ErrCodeUnavailable reports a request shed by an open circuit
	// breaker: the route's storage or sync path is failing repeatedly and
	// the server answers immediately instead of grinding against it. The
	// Data member carries "circuit-open".
	ErrCodeUnavailable = -32013
)

// Error is a typed JSON-RPC error object.
type Error struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
	Data    any    `json:"data,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("rpc error %d: %s", e.Code, e.Message) }

// Errf formats a typed error.
func Errf(code int, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Request is one JSON-RPC call as decoded from the wire. ID is the raw
// id token (number, string or null); a nil ID marks a notification,
// which executes but gets no response object.
type Request struct {
	JSONRPC string            `json:"jsonrpc"`
	ID      json.RawMessage   `json:"id,omitempty"`
	Method  string            `json:"method"`
	Params  []json.RawMessage `json:"params,omitempty"`
}

// answer is one call's outcome, ready to be framed into a response
// object: the raw request id and either the encoded result or a typed
// error. Staleness is forkwatch's degraded-mode extension: a replica
// serving more than its staleness bound behind the primary tags every
// response with how many blocks it lags (the "staleness" member) instead
// of silently answering from an old head. Healthy serving omits the
// member, so a caught-up replica's responses stay byte-identical to the
// primary's.
type answer struct {
	id     json.RawMessage
	result []byte // encoded JSON result; unused when err is set
	err    *Error
	stale  bool // add the staleness member
	lag    uint64
}

// encodeBody frames answers as one HTTP body: the single response
// object, or for a batch a JSON array of them. It is the serving path's
// only envelope encoder. Results are copied verbatim: they are the
// output of one json.Marshal (fresh or cached), so they are already
// compact and HTML-escaped, and re-encoding them would only repeat that
// work byte by byte. Only an Error object goes through json.Marshal; if
// one cannot be encoded the whole body becomes a typed internal error,
// as when the envelope itself failed to marshal.
func encodeBody(answers []answer, batch bool) []byte {
	size := 2
	for i := range answers {
		// 64 covers the members around a result and the separator.
		size += len(answers[i].id) + len(answers[i].result) + 64
	}
	buf := make([]byte, 0, size)
	if batch {
		buf = append(buf, '[')
	}
	for i := range answers {
		if i > 0 {
			buf = append(buf, ',')
		}
		var err error
		if buf, err = appendResponse(buf, &answers[i]); err != nil {
			return encodeBody([]answer{{err: Errf(ErrCodeInternal, "marshalling response: %v", err)}}, false)
		}
	}
	if batch {
		buf = append(buf, ']')
	}
	return buf
}

// appendResponse appends one response object, members in the order
// jsonrpc, id, result or error, staleness.
func appendResponse(dst []byte, a *answer) ([]byte, error) {
	dst = append(dst, `{"jsonrpc":"2.0","id":`...)
	dst = appendID(dst, a.id)
	if a.err != nil {
		enc, err := json.Marshal(a.err)
		if err != nil {
			return dst, err
		}
		dst = append(dst, `,"error":`...)
		dst = append(dst, enc...)
	} else {
		dst = append(dst, `,"result":`...)
		dst = append(dst, a.result...)
	}
	if a.stale {
		dst = append(dst, `,"staleness":`...)
		dst = strconv.AppendUint(dst, a.lag, 10)
	}
	return append(dst, '}'), nil
}

// appendID appends the request's raw id token the way encoding/json
// re-encodes a json.RawMessage. A missing id is null, so the member is
// always present, as the spec requires. The decoder only hands over
// syntactically valid tokens; one that fails to compact anyway is
// answered as null.
func appendID(dst []byte, id json.RawMessage) []byte {
	tok, err := reencode(id, true)
	if len(id) == 0 || err != nil {
		return append(dst, "null"...)
	}
	return append(dst, tok...)
}

// reencode returns a JSON token as encoding/json writes a
// json.RawMessage: compacted and, with escapeHTML, with <, >, & and
// U+2028/U+2029 escaped. A token that already reads so is returned as
// is, which is every id and param a well-behaved client sends.
func reencode(raw []byte, escapeHTML bool) ([]byte, error) {
	if !bytes.ContainsAny(raw, " \t\r\n") && !(escapeHTML && bytes.ContainsAny(raw, "<>&\u2028\u2029")) {
		return raw, nil
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		return raw, err
	}
	if !escapeHTML {
		return compact.Bytes(), nil
	}
	var escaped bytes.Buffer
	json.HTMLEscape(&escaped, compact.Bytes())
	return escaped.Bytes(), nil
}

// rawRequest mirrors Request but keeps params unsplit, so a non-array
// params member is rejected with InvalidParams rather than a decode
// failure that would mask the request id.
type rawRequest struct {
	JSONRPC *string         `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Method  *string         `json:"method"`
	Params  json.RawMessage `json:"params"`
}

// DecodeRequests parses one HTTP body into its calls. isBatch reports
// whether the body was a JSON array (the response must then be an array
// too). A top-level syntax error returns *Error with ErrCodeParse; a
// structurally invalid single request returns ErrCodeInvalidRequest.
// Individual bad entries inside a batch do NOT fail the whole batch:
// they come back as Request values with a non-nil decodeErr recorded via
// the returned errs slice (indexed like the requests).
func DecodeRequests(body []byte, maxBatch int) (reqs []Request, errs []*Error, isBatch bool, topErr *Error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, nil, false, Errf(ErrCodeInvalidRequest, "empty request body")
	}
	if trimmed[0] == '[' {
		var raws []json.RawMessage
		if err := json.Unmarshal(trimmed, &raws); err != nil {
			return nil, nil, false, Errf(ErrCodeParse, "parse error: %v", err)
		}
		if len(raws) == 0 {
			return nil, nil, true, Errf(ErrCodeInvalidRequest, "empty batch")
		}
		if maxBatch > 0 && len(raws) > maxBatch {
			return nil, nil, true, Errf(ErrCodeInvalidRequest, "batch of %d exceeds limit %d", len(raws), maxBatch)
		}
		reqs = make([]Request, len(raws))
		errs = make([]*Error, len(raws))
		for i, raw := range raws {
			reqs[i], errs[i] = decodeOne(raw)
		}
		return reqs, errs, true, nil
	}
	req, err := decodeOne(trimmed)
	if err != nil && err.Code == ErrCodeParse {
		return nil, nil, false, err
	}
	return []Request{req}, []*Error{err}, false, nil
}

// decodeOne parses and validates a single call object.
func decodeOne(raw json.RawMessage) (Request, *Error) {
	var rr rawRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rr); err != nil {
		// Distinguish syntax errors from structural ones: a syntax error
		// means we may not even know the id.
		var syn *json.SyntaxError
		if errors.As(err, &syn) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return Request{}, Errf(ErrCodeParse, "parse error: %v", err)
		}
		return Request{ID: rr.ID}, Errf(ErrCodeInvalidRequest, "invalid request: %v", err)
	}
	req := Request{ID: rr.ID}
	if rr.JSONRPC == nil || *rr.JSONRPC != Version {
		return req, Errf(ErrCodeInvalidRequest, `invalid request: jsonrpc member must be "2.0"`)
	}
	req.JSONRPC = *rr.JSONRPC
	if rr.Method == nil || *rr.Method == "" {
		return req, Errf(ErrCodeInvalidRequest, "invalid request: missing method")
	}
	req.Method = *rr.Method
	if len(rr.Params) > 0 && !bytes.Equal(bytes.TrimSpace(rr.Params), []byte("null")) {
		if err := json.Unmarshal(rr.Params, &req.Params); err != nil {
			return req, Errf(ErrCodeInvalidParams, "params must be a JSON array: %v", err)
		}
	}
	if len(req.ID) > 0 {
		// The id must be a string, number or null — not an object/array.
		idTrim := bytes.TrimSpace(req.ID)
		if idTrim[0] == '{' || idTrim[0] == '[' {
			return Request{}, Errf(ErrCodeInvalidRequest, "invalid request: id must be a string, number or null")
		}
	}
	return req, nil
}

// IsNotification reports whether the call carries no id (fire-and-forget
// per the spec: executed, but excluded from the response).
func (r *Request) IsNotification() bool { return len(r.ID) == 0 }

// CacheKey is the canonical request encoding used as the response-cache
// key: method plus compacted params JSON. Two requests differing only in
// whitespace or member order inside the envelope share a key; params are
// compared textually after compaction.
func (r *Request) CacheKey() string {
	n := len(r.Method) + 1
	for _, p := range r.Params {
		n += len(p) + 1
	}
	var b strings.Builder
	b.Grow(n) // compaction only shrinks a param
	b.WriteString(r.Method)
	b.WriteByte(0)
	for _, p := range r.Params {
		p, _ = reencode(p, false) // unchanged when it does not parse
		b.Write(p)
		b.WriteByte(0)
	}
	return b.String()
}
