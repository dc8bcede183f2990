package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"forkwatch/internal/metrics"
)

// ServerConfig tunes the serving layer. The zero value picks production
// defaults sized for an in-memory archive.
type ServerConfig struct {
	// Workers is the size of the execution pool (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the jobs waiting for a worker; a full queue sheds
	// load with 429 + Retry-After (default 256).
	QueueDepth int
	// RequestTimeout bounds one HTTP request end to end — queue wait plus
	// execution. A request that cannot finish (stalled storage) gets a
	// typed timeout error instead of hanging (default 5s).
	RequestTimeout time.Duration
	// RatePerSec is the per-client token refill rate (0 = unlimited); the
	// bucket holds two seconds' worth.
	RatePerSec float64
	// Registry receives the server's metrics (default: a fresh registry).
	Registry *metrics.Registry
}

// Fixed serving limits.
const (
	maxBodyBytes    = 1 << 20         // request body bound
	maxCacheEntries = 4096            // a route's response cache: entries (respCache)
	maxCacheBytes   = 16 << 20        // a route's response cache: keys plus results
	maxBatch        = 64              // calls per batch request
	drainTimeout    = 5 * time.Second // how long Drain waits for in-flight requests
	// A route's storage circuit breaker opens after breakerThreshold
	// consecutive storage failures; while open the route sheds with a typed
	// ErrCodeUnavailable for breakerCooldown before a half-open probe.
	breakerThreshold = 8
	breakerCooldown  = 2 * time.Second
)

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	return c
}

// job is one HTTP request's worth of calls travelling through the pool.
type job struct {
	ctx   context.Context
	rt    *route
	reqs  []Request
	errs  []*Error
	batch bool
	done  chan []byte // marshalled response body; nil = no content
}

// Server routes per-chain JSON-RPC endpoints plus /debug/metrics over a
// shared bounded worker pool. Create with NewServer, which mounts every
// chain, then serve it as an http.Handler.
type Server struct {
	cfg     ServerConfig
	reg     *metrics.Registry
	limiter *rateLimiter

	queueDepth *metrics.Gauge

	routes map[string]*route // "eth" -> mounted chain; fixed by NewServer

	draining atomic.Bool
	inflight atomic.Int64

	jobs      chan *job
	stopOnce  sync.Once
	stopped   chan struct{}
	drainOnce sync.Once
	drainCh   chan struct{} // closed when Drain starts; wakes stream handlers
	wg        sync.WaitGroup
}

// route is one mounted chain with everything its requests touch resolved
// at mount: the storage circuit breaker, the response cache, the
// route's refusal counters, and per method the metric handles, so serving
// a call — or refusing one under overload — builds no metric name and
// looks nothing up in the registry.
type route struct {
	name         string // lowercase path segment, e.g. "eth"
	be           *Backend
	breaker      *breaker
	cache        *respCache // every cacheable method's answers
	httpRequests *metrics.Counter
	refused      refusals
	methods      map[string]*methodHandle // the dispatch table, per route
	unknown      *methodHandle            // every name methods lacks
}

// refusals counts, per route, the requests turned away before or instead
// of running, under rpc.<route>.<reason>.
type refusals struct {
	drained, ratelimited, oversized, malformed, shed, timeouts, breakerShed *metrics.Counter
}

// methodHandle is one (route, method) pair's serving state. cached is
// false for the live methods, which are neither cached nor
// breaker-gated; hits and misses are nil with it.
type methodHandle struct {
	fn                             method
	cached                         bool
	requests, hits, misses, errors *metrics.Counter
	latency                        *metrics.Histogram
}

// newRoute resolves a route's handles. Metrics are named
// rpc.<route>.<method>.{requests,cache_hits,cache_misses,errors,latency};
// unknown method names share rpc.<route>.method_not_found.* so a client
// cannot grow the registry by inventing names.
func (s *Server) newRoute(name string, be *Backend) *route {
	handle := func(m string, fn method, cacheable bool) *methodHandle {
		prefix := "rpc." + name + "." + m
		h := &methodHandle{
			fn:       fn,
			requests: s.reg.Counter(prefix + ".requests"),
			errors:   s.reg.Counter(prefix + ".errors"),
			latency:  s.reg.Histogram(prefix + ".latency"),
		}
		if cacheable {
			h.cached = true
			h.hits = s.reg.Counter(prefix + ".cache_hits")
			h.misses = s.reg.Counter(prefix + ".cache_misses")
		}
		return h
	}
	counter := func(reason string) *metrics.Counter { return s.reg.Counter("rpc." + name + "." + reason) }
	rt := &route{
		name:         name,
		be:           be,
		breaker:      newBreaker(breakerThreshold, breakerCooldown),
		cache:        newRespCache(maxCacheEntries, maxCacheBytes),
		httpRequests: counter("http_requests"),
		refused: refusals{
			drained:     counter("drained"),
			ratelimited: counter("ratelimited"),
			oversized:   counter("oversized"),
			malformed:   counter("malformed"),
			shed:        counter("shed"),
			timeouts:    counter("timeouts"),
			breakerShed: counter("breaker_shed"),
		},
		methods: make(map[string]*methodHandle, len(methods)),
		unknown: handle("method_not_found", nil, false),
	}
	for m, spec := range methods {
		rt.methods[m] = handle(m, spec.fn, !spec.live)
	}
	return rt
}

// handle returns the serving state for a method name.
func (rt *route) handle(method string) *methodHandle {
	if h, ok := rt.methods[method]; ok {
		return h
	}
	return rt.unknown
}

// NewServer builds the server, mounts each backend at /<lowercase name>
// (e.g. "ETH" → /eth) and starts the worker pool. Call Close to stop the
// workers. Two backends with one route name are a caller's bug: NewServer
// panics naming the route.
func NewServer(cfg ServerConfig, backends ...*Backend) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		limiter: newRateLimiter(cfg.RatePerSec),
		routes:  make(map[string]*route, len(backends)),
		jobs:    make(chan *job, cfg.QueueDepth),
		stopped: make(chan struct{}),
		drainCh: make(chan struct{}),
	}
	s.queueDepth = s.reg.Gauge("rpc.queue_depth")
	// Pre-register the replica-tier metrics so /debug/metrics always
	// carries them: a standalone primary reports zeroes, a replica (or a
	// failover client sharing the registry) moves them.
	s.reg.Counter("rpc.failovers")
	s.reg.Counter("rpc.hedged")
	s.reg.Gauge("serve.degraded").Set(0)
	s.reg.Gauge("sync.lag_blocks").Set(0)
	// live.subscribers counts open /<route>/stream connections (subs.go).
	s.reg.Gauge("live.subscribers").Set(0)
	for _, be := range backends {
		s.mount(be)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops the worker pool. In-flight jobs finish; queued jobs are
// never run: each waits out RequestTimeout and is answered with a timeout
// error (ErrCodeTimeout).
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stopped) })
	s.wg.Wait()
}

// mount routes a backend at its lowercase name and wires the route's
// breaker and cache gauges and the chain's storage counters into the
// metrics snapshot.
func (s *Server) mount(be *Backend) {
	name := strings.ToLower(be.Name())
	if _, dup := s.routes[name]; dup {
		panic(fmt.Sprintf("rpc: route /%s mounted twice", name))
	}
	rt := s.newRoute(name, be)
	s.routes[name] = rt
	s.reg.GaugeFunc("rpc."+name+".breaker_open", func() float64 {
		if rt.breaker.Open() {
			return 1
		}
		return 0
	})
	s.reg.GaugeFunc("rpc."+name+".cache_entries", func() float64 {
		n, _ := rt.cache.stats()
		return float64(n)
	})
	s.reg.GaugeFunc("rpc."+name+".cache_bytes", func() float64 {
		_, n := rt.cache.stats()
		return float64(n)
	})
	bc := be.Chain()
	prefix := "storage." + name + "."
	s.reg.GaugeFunc(prefix+"reads", func() float64 { return float64(bc.StorageStats().Reads) })
	s.reg.GaugeFunc(prefix+"writes", func() float64 { return float64(bc.StorageStats().Writes) })
	s.reg.GaugeFunc(prefix+"entries", func() float64 { return float64(bc.StorageStats().Entries) })
	s.reg.GaugeFunc(prefix+"hit_rate", func() float64 { return bc.StorageStats().HitRate() })
	s.reg.GaugeFunc(prefix+"repairs", func() float64 { return float64(bc.StorageStats().Repairs) })
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Drain stops accepting chain requests (503 + Retry-After) and waits up
// to drainTimeout for the in-flight ones to finish, so a shutdown never
// tears a response mid-write. /healthz, /readyz and /debug/metrics keep
// answering — orchestration needs them during the drain. Idempotent.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
	s.reg.Gauge("serve.draining").Set(1)
	deadline := time.Now().Add(drainTimeout)
	for s.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

// routeHealth is one route's entry in the /readyz report.
type routeHealth struct {
	Degraded  bool   `json:"degraded"`
	Staleness uint64 `json:"staleness"`
}

// Readiness is the /readyz payload: Ready is true only when the server
// is not draining and no route is degraded (stale beyond its bound or
// shedding through an open breaker).
type Readiness struct {
	Ready    bool                   `json:"ready"`
	Draining bool                   `json:"draining"`
	Routes   map[string]routeHealth `json:"routes"`
}

// CheckReadiness evaluates the current readiness verdict.
func (s *Server) CheckReadiness() Readiness {
	rd := Readiness{Ready: true, Draining: s.draining.Load(), Routes: map[string]routeHealth{}}
	if rd.Draining {
		rd.Ready = false
	}
	for _, rt := range s.routes {
		h := routeHealth{}
		if fn := rt.be.stale; fn != nil {
			h.Staleness, h.Degraded = fn()
		}
		if rt.breaker.Open() {
			h.Degraded = true
		}
		if h.Degraded {
			rd.Ready = false
		}
		rd.Routes[rt.name] = h
	}
	return rd
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch path := strings.Trim(r.URL.Path, "/"); path {
	case "debug/metrics":
		w.Header().Set("Content-Type", "application/json")
		_ = s.reg.WriteJSON(w)
		return
	case "healthz":
		fmt.Fprintln(w, "ok")
		return
	case "readyz":
		rd := s.CheckReadiness()
		status := http.StatusOK
		if !rd.Ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, rd)
		return
	default:
		// /<route>/stream is the persistent subscription transport; the
		// bare route is the POST JSON-RPC endpoint.
		if name, ok := strings.CutSuffix(path, "/stream"); ok {
			rt := s.routes[name]
			if rt == nil {
				http.NotFound(w, r)
				return
			}
			s.serveStream(w, r, rt.name, rt.be)
			return
		}
		rt := s.routes[path]
		if rt == nil {
			http.NotFound(w, r)
			return
		}
		s.serveChain(w, r, rt)
	}
}

func (s *Server) serveChain(w http.ResponseWriter, r *http.Request, rt *route) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "JSON-RPC requires POST", http.StatusMethodNotAllowed)
		return
	}
	// Draining: refuse new work before touching the queue, finish what is
	// already in flight (tracked below).
	if s.draining.Load() {
		rt.refused.drained.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	rt.httpRequests.Inc()

	// Per-client token bucket: shed before reading the body.
	client := clientKey(r)
	if ok, retry := s.limiter.allow(client); !ok {
		rt.refused.ratelimited.Inc()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retry.Seconds()+0.5)))
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
		return
	}

	// A read error other than the size bound decodes what arrived.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if errors.As(err, new(*http.MaxBytesError)) {
		rt.refused.oversized.Inc()
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}

	reqs, errs, isBatch, topErr := DecodeRequests(body, maxBatch)
	if topErr != nil {
		rt.refused.malformed.Inc()
		writeBody(w, encodeBody([]answer{{err: topErr}}, false))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	j := &job{ctx: ctx, rt: rt, reqs: reqs, errs: errs, batch: isBatch, done: make(chan []byte, 1)}

	// Queue-depth backpressure: a full queue answers 429 immediately
	// rather than parking the connection.
	select {
	case s.jobs <- j:
		s.queueDepth.Set(int64(len(s.jobs)))
	default:
		rt.refused.shed.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server saturated, retry later", http.StatusTooManyRequests)
		return
	}

	select {
	case resp := <-j.done:
		if resp == nil {
			w.WriteHeader(http.StatusNoContent) // batch of notifications
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(resp)
	case <-ctx.Done():
		// The worker may still be grinding behind a stalled store; the
		// client gets a well-formed timeout error regardless. The
		// buffered done channel lets the worker finish without leaking.
		rt.refused.timeouts.Inc()
		writeBody(w, s.timeoutBody(reqs, isBatch))
	}
}

// timeoutBody builds the timeout response mirroring the request shape
// (a batch of notifications only gets an empty array).
func (s *Server) timeoutBody(reqs []Request, isBatch bool) []byte {
	e := Errf(ErrCodeTimeout, "request timed out after %s", s.cfg.RequestTimeout)
	if !isBatch {
		var id json.RawMessage
		if len(reqs) > 0 {
			id = reqs[0].ID
		}
		return encodeBody([]answer{{id: id, err: e}}, false)
	}
	out := make([]answer, 0, len(reqs))
	for _, req := range reqs {
		if !req.IsNotification() {
			out = append(out, answer{id: req.ID, err: e})
		}
	}
	return encodeBody(out, true)
}

// worker drains the job queue, executing each HTTP request's calls in
// order and handing the encoded body back to the transport goroutine.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopped:
			return
		case j := <-s.jobs:
			s.queueDepth.Set(int64(len(s.jobs)))
			j.done <- s.process(j)
		}
	}
}

// process executes one job and encodes the response body (nil when the
// request was only notifications). Every answer from a method carries
// the route's staleness, sampled as it is answered; the cache holds
// result bytes only, so a replica that catches back up stops tagging at
// once and its responses return to byte-identical with the primary.
func (s *Server) process(j *job) []byte {
	stale := j.rt.be.stale
	var one [1]answer // a single call's answer stays off the heap
	answers := one[:0]
	for i := range j.reqs {
		req := &j.reqs[i]
		// Abandoned by the transport already? Stop burning the worker.
		select {
		case <-j.ctx.Done():
			if !req.IsNotification() {
				answers = append(answers, answer{id: req.ID, err: Errf(ErrCodeTimeout, "request timed out")})
			}
			continue
		default:
		}
		if j.errs != nil && j.errs[i] != nil {
			// A malformed call is never a valid notification: it always
			// gets an error response (id null when undeterminable).
			answers = append(answers, answer{id: req.ID, err: j.errs[i]})
			continue
		}
		result, rpcErr := s.call(j.ctx, j.rt, req)
		if req.IsNotification() {
			continue
		}
		a := answer{id: req.ID, result: result, err: rpcErr}
		if stale != nil {
			a.lag, a.stale = stale()
		}
		answers = append(answers, a)
	}
	if len(answers) == 0 {
		return nil
	}
	return encodeBody(answers, j.batch)
}

// call executes one request against a route, consulting the route's
// generation-tagged response cache, and returns the encoded result or a
// typed error.
func (s *Server) call(ctx context.Context, rt *route, req *Request) ([]byte, *Error) {
	h := rt.handle(req.Method)
	start := time.Now()
	h.requests.Inc()
	defer h.latency.ObserveSince(start)

	if h.fn == nil {
		h.errors.Inc()
		return nil, Errf(ErrCodeMethodNotFound, "method %q not found", req.Method)
	}

	// Live/subscription methods bypass the cache AND the breaker: their
	// results move independently of the head (so generation tagging would
	// serve stale cursors), and they never touch storage (so a tripped
	// breaker says nothing about them).
	if !h.cached {
		result, rpcErr := safeCall(ctx, h.fn, rt.be, req.Params)
		if rpcErr != nil {
			h.errors.Inc()
			return nil, rpcErr
		}
		return h.encode(result)
	}

	// The generation is read BEFORE executing: if the head moves while we
	// compute, the entry lands under the older generation, which requests
	// after the move do not look up while that head is not current. See
	// respCache.
	gen := rt.be.Generation()
	key := req.CacheKey()
	if raw, ok := rt.cache.get(key, gen); ok {
		h.hits.Inc()
		return raw, nil
	}
	h.misses.Inc()

	// Cache misses hit storage: behind an open circuit breaker they are
	// shed with a typed error instead of grinding a failing store (cache
	// hits above still serve — they cost the store nothing).
	if !rt.breaker.Allow() {
		h.errors.Inc()
		rt.refused.breakerShed.Inc()
		e := Errf(ErrCodeUnavailable, "storage circuit open on %s, retry after cooldown", rt.name)
		e.Data = "circuit-open"
		return nil, e
	}

	result, rpcErr := safeCall(ctx, h.fn, rt.be, req.Params)
	if rpcErr != nil {
		// Only dependency failures feed the breaker; caller mistakes
		// (bad params, unknown blocks) say nothing about the store.
		if rpcErr.Code == ErrCodeStorage {
			rt.breaker.Fail()
		} else {
			rt.breaker.Success()
		}
		h.errors.Inc()
		return nil, rpcErr
	}
	rt.breaker.Success()
	enc, rpcErr := h.encode(result)
	if rpcErr == nil {
		rt.cache.put(key, gen, enc)
	}
	return enc, rpcErr
}

// encode is a result's one json.Marshal; the bytes it returns are what
// the cache holds and what the envelope copies. A method that appends
// its own encoding returns it as a json.RawMessage, which is passed
// through: it must be the bytes json.Marshal would produce.
func (h *methodHandle) encode(result any) ([]byte, *Error) {
	if raw, ok := result.(json.RawMessage); ok {
		return raw, nil
	}
	enc, err := json.Marshal(result)
	if err != nil {
		h.errors.Inc()
		return nil, Errf(ErrCodeInternal, "marshalling result: %v", err)
	}
	return enc, nil
}

// safeCall runs a method behind a panic fence: whatever a backend or a
// corrupt store does, the client sees a typed internal error, never a
// torn-down connection.
func safeCall(ctx context.Context, fn method, be *Backend, params []json.RawMessage) (result any, rpcErr *Error) {
	defer func() {
		if r := recover(); r != nil {
			result, rpcErr = nil, Errf(ErrCodeInternal, "internal error: %v", r)
		}
	}()
	return fn(ctx, be, params)
}

// clientKey derives the rate-limit bucket key from the remote address.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// writeBody writes an encoded envelope the way writeJSON writes a value:
// status 200 and a trailing newline.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(body, '\n'))
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
