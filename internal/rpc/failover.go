package rpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"forkwatch/internal/clock"
	"forkwatch/internal/metrics"
)

// Failure classes a failover client assigns to request outcomes. Load
// generators report per-class counts; the client uses them to steer
// endpoint selection.
const (
	ClassOK          = "ok"           // success from a healthy endpoint
	ClassDegraded    = "degraded"     // success tagged with a staleness field
	ClassTimeout     = "timeout"      // transport timeout or -32011
	ClassOverloaded  = "overloaded"   // HTTP 429 or -32012
	ClassReadOnly    = "read_only"    // -32010 with data "read-only"
	ClassStorage     = "storage"      // other -32010 storage failures
	ClassCircuitOpen = "circuit_open" // -32013 (open circuit breaker)
	ClassDraining    = "draining"     // HTTP 503 (drain or not ready)
	ClassRPCError    = "rpc_error"    // other JSON-RPC errors (caller's fault)
	ClassTransport   = "transport"    // connection-level failure
	ClassProtocol    = "protocol"     // malformed / spec-violating response
)

// retryableClass reports whether an outcome justifies trying another
// endpoint: infrastructure failures do, deterministic answers (success,
// degraded-but-correct success, invalid params) do not.
func retryableClass(class string) bool {
	switch class {
	case ClassOK, ClassDegraded, ClassRPCError:
		return false
	}
	return true
}

// endpoint health states, ordered by dial preference.
const (
	epHealthy int32 = iota
	epDegraded
	epDown
)

// FailoverConfig configures a FailoverClient.
type FailoverConfig struct {
	// Endpoints are same-chain replica endpoints (full chain URLs, e.g.
	// "http://127.0.0.1:8546/eth") in preference order.
	Endpoints []string
	// HTTPClient is shared by all endpoints (default: 10s timeout).
	HTTPClient *http.Client
	// HedgeDelay, when > 0, fires the same request at the next-best
	// endpoint if the first has not answered within the delay; the first
	// usable response wins (tail-latency insurance under faults).
	HedgeDelay time.Duration
	// HealthInterval, when > 0, polls every endpoint's /readyz in the
	// background so failover decisions do not wait for a request to fail.
	HealthInterval time.Duration
	// Clock times the hedge and the health poll; nil means the real
	// clock.
	Clock clock.Clock
	// Registry, when set, receives rpc.failovers / rpc.hedged counters
	// (point it at a served registry to surface them at /debug/metrics).
	Registry *metrics.Registry
	// Logf receives debug lines.
	Logf func(format string, args ...any)
}

// FailoverStats is a snapshot of a client's outcome tallies.
type FailoverStats struct {
	Requests  uint64            `json:"requests"`
	Failovers uint64            `json:"failovers"`
	Hedged    uint64            `json:"hedged"`
	ByClass   map[string]uint64 `json:"by_class"`
}

// Outcome describes how one request was ultimately answered.
type Outcome struct {
	// Endpoint is the URL that produced the final answer.
	Endpoint string
	// Class is the final outcome class (Class* constants).
	Class string
	// Staleness is the response's staleness tag (valid when Tagged).
	Staleness uint64
	Tagged    bool
	// Failovers counts endpoint switches made for this request.
	Failovers int
	// Hedged reports whether a hedge request was fired.
	Hedged bool
}

// fepState is one endpoint's live health record.
type fepState struct {
	url      string
	readyURL string
	state    atomic.Int32
}

// FailoverClient is the package's JSON-RPC client: a health-checking,
// hedging, failing-over client for a set of replicas serving the same
// chain. Requests go to the healthiest endpoint first, infrastructure
// failures (transport errors, 429/503, typed storage/timeout/breaker
// errors) move on to the next, and slow answers are optionally hedged.
// Responses tagged with a staleness field are surfaced as
// ClassDegraded, never hidden. One endpoint is the degenerate case — no
// health loop, no hedge, nowhere to fail over to — with the same
// classification and the same Call decoding. Safe for concurrent
// use; ids are allocated atomically.
type FailoverClient struct {
	cfg    FailoverConfig
	hc     *http.Client
	eps    []*fepState
	nextID atomic.Int64

	mu     sync.Mutex
	stats  FailoverStats
	health clock.Timer // the next health poll; nil once closed
}

// NewFailoverClient builds a client over cfg.Endpoints (at least one).
// Call Close to stop the background health loop.
func NewFailoverClient(cfg FailoverConfig) (*FailoverClient, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("rpc: failover client needs at least one endpoint")
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cfg.Clock = clock.Or(cfg.Clock)
	c := &FailoverClient{
		cfg: cfg,
		hc:  cfg.HTTPClient,
	}
	c.stats.ByClass = map[string]uint64{}
	for _, ep := range cfg.Endpoints {
		c.eps = append(c.eps, &fepState{url: ep, readyURL: readyURL(ep)})
	}
	if cfg.HealthInterval > 0 {
		c.health = c.cfg.Clock.AfterFunc(cfg.HealthInterval, c.pollHealth)
	}
	return c, nil
}

// readyURL rewrites a chain endpoint to its server's /readyz.
func readyURL(endpoint string) string {
	u, err := url.Parse(endpoint)
	if err != nil {
		return strings.TrimRight(endpoint, "/") + "/readyz"
	}
	u.Path = "/readyz"
	u.RawQuery = ""
	return u.String()
}

// Close stops the health poll. A poll already running finishes, but
// arms no next one.
func (c *FailoverClient) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.health != nil {
		c.health.Stop()
		c.health = nil
	}
}

// Stats returns a copy of the outcome tallies.
func (c *FailoverClient) Stats() FailoverStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.ByClass = make(map[string]uint64, len(c.stats.ByClass))
	for k, v := range c.stats.ByClass {
		out.ByClass[k] = v
	}
	return out
}

// pollHealth polls every endpoint's /readyz each HealthInterval:
// unreachable marks it down, not-ready marks it degraded, ready marks it
// healthy. Request outcomes update the same states in between polls.
func (c *FailoverClient) pollHealth() {
	for _, ep := range c.eps {
		resp, err := c.hc.Get(ep.readyURL)
		if err != nil {
			ep.state.Store(epDown)
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //nolint:errcheck
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			ep.state.Store(epHealthy)
		default:
			ep.state.Store(epDegraded)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.health != nil {
		c.health = c.cfg.Clock.AfterFunc(c.cfg.HealthInterval, c.pollHealth)
	}
}

// order snapshots the endpoints sorted healthiest-first; config order
// breaks ties, and even down endpoints stay in as a last resort.
func (c *FailoverClient) order() []*fepState {
	out := append([]*fepState(nil), c.eps...)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].state.Load() < out[j].state.Load()
	})
	return out
}

func (c *FailoverClient) count(name string) {
	if c.cfg.Registry != nil {
		c.cfg.Registry.Counter(name).Inc()
	}
}

// attemptResult carries one endpoint's answer back to do: the raw body,
// its class, and, for a single response, the envelope attempt decoded to
// classify it, so Call does not parse it a second time.
type attemptResult struct {
	ep    *fepState
	raw   []byte
	class string
	resp  clientResponse
}

// Do posts one JSON-RPC body, failing over and hedging across the
// endpoint set. It returns the winning endpoint's raw response body (nil
// when every endpoint failed at the transport level) and the outcome. A
// batch body travels as a whole: it is never split across endpoints, and
// an array answer is final whatever its elements say.
func (c *FailoverClient) Do(body []byte) ([]byte, Outcome) {
	res, out := c.do(body)
	return res.raw, out
}

// do is Do returning the winning attempt whole, decoded body included.
func (c *FailoverClient) do(body []byte) (attemptResult, Outcome) {
	eps := c.order()
	out := Outcome{}
	results := make(chan attemptResult, len(eps))
	inflight, next := 0, 0
	launch := func() {
		ep := eps[next]
		next++
		inflight++
		go func() {
			results <- c.attempt(ep, body)
		}()
	}
	launch()
	var hedgeC chan struct{}
	if c.cfg.HedgeDelay > 0 && len(eps) > 1 {
		hedge := make(chan struct{})
		timer := c.cfg.Clock.AfterFunc(c.cfg.HedgeDelay, func() { close(hedge) })
		defer timer.Stop()
		hedgeC = hedge
	}
	var last attemptResult
	for inflight > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			if next < len(eps) {
				out.Hedged = true
				c.count("rpc.hedged")
				launch()
			}
		case res := <-results:
			inflight--
			c.noteEndpoint(res)
			if !retryableClass(res.class) {
				c.finish(&out, res)
				return res, out
			}
			last = res
			if inflight == 0 && next < len(eps) {
				out.Failovers++
				c.count("rpc.failovers")
				launch()
			}
		}
	}
	// Every endpoint failed; report the last failure honestly.
	c.finish(&out, last)
	return last, out
}

// finish folds the winning attempt into the outcome and the tallies.
func (c *FailoverClient) finish(out *Outcome, res attemptResult) {
	if res.ep != nil {
		out.Endpoint = res.ep.url
	}
	out.Class = res.class
	if st := res.resp.Staleness; st != nil {
		out.Tagged = true
		out.Staleness = *st
	}
	c.mu.Lock()
	c.stats.Requests++
	c.stats.Failovers += uint64(out.Failovers)
	if out.Hedged {
		c.stats.Hedged++
	}
	c.stats.ByClass[res.class]++
	c.mu.Unlock()
}

// noteEndpoint folds one attempt's class into the endpoint's health.
func (c *FailoverClient) noteEndpoint(res attemptResult) {
	switch res.class {
	case ClassOK, ClassRPCError:
		res.ep.state.Store(epHealthy)
	case ClassTransport, ClassDraining:
		res.ep.state.Store(epDown)
	default:
		res.ep.state.Store(epDegraded)
	}
}

// attempt posts body to one endpoint and classifies the response.
func (c *FailoverClient) attempt(ep *fepState, body []byte) (res attemptResult) {
	res.ep = ep
	resp, err := c.hc.Post(ep.url, "application/json", bytes.NewReader(body))
	if err != nil {
		res.class = ClassTransport
		if isTimeout(err) {
			res.class = ClassTimeout
		}
		return res
	}
	defer resp.Body.Close()
	res.raw, err = io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		res.raw, res.class = nil, ClassTransport
		return res
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		res.class = ClassOverloaded
		return res
	case http.StatusServiceUnavailable:
		res.class = ClassDraining
		return res
	default:
		res.class = ClassProtocol
		return res
	}
	var answered []clientResponse
	if b := bytes.TrimLeft(body, " \t\r\n"); len(b) > 0 && b[0] == '[' && json.Unmarshal(res.raw, &answered) == nil {
		// An answered batch: what each element says is its caller's
		// affair, not a reason to ask another endpoint. Anything else in
		// reply to a batch is one envelope (the server refusing the
		// batch itself) or garbage, classified below.
		res.class = ClassOK
		return res
	}
	cr := &res.resp
	switch err := json.Unmarshal(res.raw, cr); {
	case err != nil || cr.JSONRPC != Version:
		res.class = ClassProtocol
	case cr.Error != nil:
		res.class = classifyError(cr.Error)
	case len(cr.Result) == 0:
		res.class = ClassProtocol
	case cr.Staleness != nil:
		res.class = ClassDegraded
	default:
		res.class = ClassOK
	}
	return res
}

// classifyError maps a typed JSON-RPC error to its failure class.
func classifyError(e *Error) string {
	switch e.Code {
	case ErrCodeStorage:
		if s, ok := e.Data.(string); ok && s == "read-only" {
			return ClassReadOnly
		}
		return ClassStorage
	case ErrCodeTimeout:
		return ClassTimeout
	case ErrCodeOverloaded:
		return ClassOverloaded
	case ErrCodeUnavailable:
		return ClassCircuitOpen
	default:
		return ClassRPCError
	}
}

// isTimeout reports whether a transport error was a timeout.
func isTimeout(err error) bool {
	type timeouter interface{ Timeout() bool }
	for e := err; e != nil; {
		if t, ok := e.(timeouter); ok && t.Timeout() {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			break
		}
		e = u.Unwrap()
	}
	return strings.Contains(err.Error(), "Client.Timeout")
}
