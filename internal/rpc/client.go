package rpc

import (
	"encoding/json"
	"fmt"
)

// Call is the typed convenience on top of Do: it builds the request,
// fails over, and decodes the result into out (nil discards). The
// returned Outcome reports which endpoint answered and how degraded the
// answer is; the error is *Error for JSON-RPC failures (and for a bare
// HTTP 429, as ErrCodeOverloaded), a plain error otherwise.
func (c *FailoverClient) Call(out any, method string, params ...any) (Outcome, error) {
	req, err := buildRequest(c.nextID.Add(1), method, params)
	if err != nil {
		return Outcome{}, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return Outcome{}, err
	}
	res, outc := c.do(body)
	if outc.Class != ClassOK && outc.Class != ClassDegraded {
		return outc, failure(res.raw, outc.Class)
	}
	return outc, res.resp.unpack(out)
}

// failure is the error for a request no endpoint answered usably: the
// server's own *Error when the last body carries one, ErrCodeOverloaded
// for a bare HTTP 429, a plain error naming the class otherwise.
func failure(raw []byte, class string) error {
	var cr clientResponse
	if json.Unmarshal(raw, &cr) == nil && cr.Error != nil {
		return cr.Error
	}
	switch {
	case class == ClassOverloaded:
		return &Error{Code: ErrCodeOverloaded, Message: "server overloaded (HTTP 429)"}
	case raw == nil:
		return fmt.Errorf("rpc: every endpoint failed (last class %q)", class)
	}
	return fmt.Errorf("rpc: request failed with class %q", class)
}

// clientResponse keeps Result raw so callers decode into their own type.
// Staleness mirrors the server's degraded-mode envelope extension.
type clientResponse struct {
	JSONRPC   string          `json:"jsonrpc"`
	ID        json.RawMessage `json:"id"`
	Result    json.RawMessage `json:"result"`
	Error     *Error          `json:"error"`
	Staleness *uint64         `json:"staleness"`
}

func (r *clientResponse) unpack(out any) error {
	if r.Error != nil {
		return r.Error
	}
	if out == nil {
		return nil
	}
	if len(r.Result) == 0 {
		return fmt.Errorf("response carries neither result nor error")
	}
	return json.Unmarshal(r.Result, out)
}

func buildRequest(id int64, method string, params []any) (*Request, error) {
	req := &Request{
		JSONRPC: Version,
		ID:      json.RawMessage(fmt.Sprintf("%d", id)),
		Method:  method,
	}
	for _, p := range params {
		enc, err := json.Marshal(p)
		if err != nil {
			return nil, fmt.Errorf("marshalling param for %s: %w", method, err)
		}
		req.Params = append(req.Params, json.RawMessage(enc))
	}
	return req, nil
}
