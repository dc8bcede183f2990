package rpc

import (
	"context"
	"encoding/json"
	"fmt"
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
	// CacheEntries is the per-method response-cache capacity (default
	// 4096; negative disables caching).
	CacheEntries int
	// RatePerSec is the per-client token refill rate (0 = unlimited); the
	// bucket holds two seconds' worth.
	RatePerSec float64
	// Registry receives the server's metrics (default: a fresh registry).
	Registry *metrics.Registry
}

// Fixed serving limits.
const (
	maxBodyBytes = 1 << 20         // request body bound
	maxBatch     = 64              // calls per batch request
	drainTimeout = 5 * time.Second // how long Drain waits for in-flight requests
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
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	return c
}

// job is one HTTP request's worth of calls travelling through the pool.
type job struct {
	ctx   context.Context
	be    *Backend
	reqs  []Request
	errs  []*Error
	batch bool
	done  chan []byte // marshalled response body; nil = no content
}

// Server routes per-chain JSON-RPC endpoints plus /debug/metrics over a
// shared bounded worker pool. Create with NewServer, register chains,
// then serve it as an http.Handler.
type Server struct {
	cfg     ServerConfig
	reg     *metrics.Registry
	limiter *rateLimiter

	mu       sync.RWMutex
	chains   map[string]*Backend // route ("eth") -> backend
	caches   map[string]*respCache
	breakers map[string]*breaker      // route -> storage circuit breaker
	stale    map[string]StalenessFunc // route -> degraded-mode staleness source

	draining atomic.Bool
	inflight atomic.Int64

	jobs      chan *job
	stopOnce  sync.Once
	stopped   chan struct{}
	drainOnce sync.Once
	drainCh   chan struct{} // closed when Drain starts; wakes stream handlers
	wg        sync.WaitGroup
}

// StalenessFunc reports how far one route's chain trails the head it
// follows and whether that lag crosses the degraded line. The serving
// path samples it per response: degraded routes tag every response with
// the lag (see Response.Staleness) and flip the /readyz verdict.
type StalenessFunc func() (lag uint64, degraded bool)

// NewServer builds the server and starts its worker pool. Call Close to
// stop the workers.
func NewServer(cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		limiter:  newRateLimiter(cfg.RatePerSec),
		chains:   map[string]*Backend{},
		caches:   map[string]*respCache{},
		breakers: map[string]*breaker{},
		stale:    map[string]StalenessFunc{},
		jobs:     make(chan *job, cfg.QueueDepth),
		stopped:  make(chan struct{}),
		drainCh:  make(chan struct{}),
	}
	// Pre-register the replica-tier metrics so /debug/metrics always
	// carries them: a standalone primary reports zeroes, a replica (or a
	// failover client sharing the registry) moves them.
	s.reg.Counter("rpc.failovers")
	s.reg.Counter("rpc.hedged")
	s.reg.Gauge("serve.degraded").Set(0)
	s.reg.Gauge("sync.lag_blocks").Set(0)
	// live.subscribers counts open /<route>/stream connections (subs.go).
	s.reg.Gauge("live.subscribers").Set(0)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops the worker pool. In-flight jobs finish; queued jobs are
// answered with an overloaded error.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stopped) })
	s.wg.Wait()
}

// RegisterChain mounts a backend at /<lowercase name> (e.g. "ETH" →
// /eth). It also wires the chain's storage counters into the metrics
// snapshot.
func (s *Server) RegisterChain(be *Backend) {
	route := strings.ToLower(be.Name())
	s.mu.Lock()
	s.chains[route] = be
	br, hasBreaker := s.breakers[route]
	if !hasBreaker {
		br = newBreaker(breakerThreshold, breakerCooldown)
		s.breakers[route] = br
	}
	s.mu.Unlock()
	if !hasBreaker {
		s.reg.GaugeFunc("rpc."+route+".breaker_open", func() float64 {
			if br.Open() {
				return 1
			}
			return 0
		})
	}
	bc := be.Chain()
	prefix := "storage." + route + "."
	s.reg.GaugeFunc(prefix+"reads", func() float64 { return float64(bc.StorageStats().Reads) })
	s.reg.GaugeFunc(prefix+"writes", func() float64 { return float64(bc.StorageStats().Writes) })
	s.reg.GaugeFunc(prefix+"entries", func() float64 { return float64(bc.StorageStats().Entries) })
	s.reg.GaugeFunc(prefix+"hit_rate", func() float64 { return bc.StorageStats().HitRate() })
	s.reg.GaugeFunc(prefix+"repairs", func() float64 { return float64(bc.StorageStats().Repairs) })
	s.reg.GaugeFunc("rpc."+route+".cache_entries", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		n := 0
		for key, c := range s.caches {
			if strings.HasPrefix(key, route+".") {
				n += c.len()
			}
		}
		return float64(n)
	})
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// SetStaleness installs a route's staleness source (replicas wire their
// sync-lag tracker here). A nil fn removes it.
func (s *Server) SetStaleness(route string, fn StalenessFunc) {
	s.mu.Lock()
	if fn == nil {
		delete(s.stale, route)
	} else {
		s.stale[route] = fn
	}
	s.mu.Unlock()
}

// stalenessFor returns the route's staleness source, or nil.
func (s *Server) stalenessFor(route string) StalenessFunc {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stale[route]
}

// breakerFor returns the registered route's circuit breaker.
func (s *Server) breakerFor(route string) *breaker {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.breakers[route]
}

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

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

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
	s.mu.RLock()
	routes := make([]string, 0, len(s.chains))
	for route := range s.chains {
		routes = append(routes, route)
	}
	s.mu.RUnlock()
	for _, route := range routes {
		h := routeHealth{}
		if fn := s.stalenessFor(route); fn != nil {
			h.Staleness, h.Degraded = fn()
		}
		if br := s.breakerFor(route); br.Open() {
			h.Degraded = true
		}
		if h.Degraded {
			rd.Ready = false
		}
		rd.Routes[route] = h
	}
	return rd
}

// cacheFor returns the per-(chain, method) response cache.
func (s *Server) cacheFor(route, method string) *respCache {
	key := route + "." + method
	s.mu.RLock()
	c, ok := s.caches[key]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok = s.caches[key]; ok {
		return c
	}
	c = newRespCache(s.cfg.CacheEntries)
	s.caches[key] = c
	return c
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
		if route, ok := strings.CutSuffix(path, "/stream"); ok {
			s.mu.RLock()
			be, found := s.chains[route]
			s.mu.RUnlock()
			if !found {
				http.NotFound(w, r)
				return
			}
			s.serveStream(w, r, route, be)
			return
		}
		s.mu.RLock()
		be, ok := s.chains[path]
		s.mu.RUnlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		s.serveChain(w, r, path, be)
	}
}

func (s *Server) serveChain(w http.ResponseWriter, r *http.Request, route string, be *Backend) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "JSON-RPC requires POST", http.StatusMethodNotAllowed)
		return
	}
	// Draining: refuse new work before touching the queue, finish what is
	// already in flight (tracked below).
	if s.draining.Load() {
		s.reg.Counter("rpc." + route + ".drained").Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	s.reg.Counter("rpc." + route + ".http_requests").Inc()

	// Per-client token bucket: shed before reading the body.
	client := clientKey(r)
	if ok, retry := s.limiter.allow(client); !ok {
		s.reg.Counter("rpc." + route + ".ratelimited").Inc()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retry.Seconds()+0.5)))
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
		return
	}

	body := make([]byte, 0, 512)
	limited := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	buf := make([]byte, 4096)
	for {
		n, err := limited.Read(buf)
		body = append(body, buf[:n]...)
		if err != nil {
			if err.Error() == "http: request body too large" {
				s.reg.Counter("rpc." + route + ".oversized").Inc()
				http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
				return
			}
			break
		}
	}

	reqs, errs, isBatch, topErr := DecodeRequests(body, maxBatch)
	if topErr != nil {
		s.reg.Counter("rpc." + route + ".malformed").Inc()
		writeJSON(w, http.StatusOK, replyErr(nil, topErr))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	j := &job{ctx: ctx, be: be, reqs: reqs, errs: errs, batch: isBatch, done: make(chan []byte, 1)}

	// Queue-depth backpressure: a full queue answers 429 immediately
	// rather than parking the connection.
	select {
	case s.jobs <- j:
		s.reg.Gauge("rpc.queue_depth").Set(int64(len(s.jobs)))
	default:
		s.reg.Counter("rpc." + route + ".shed").Inc()
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
		s.reg.Counter("rpc." + route + ".timeouts").Inc()
		writeJSON(w, http.StatusOK, s.timeoutBody(reqs, isBatch))
	}
}

// timeoutBody builds the timeout response mirroring the request shape.
func (s *Server) timeoutBody(reqs []Request, isBatch bool) any {
	if !isBatch {
		var id json.RawMessage
		if len(reqs) > 0 {
			id = reqs[0].ID
		}
		return replyErr(id, Errf(ErrCodeTimeout, "request timed out after %s", s.cfg.RequestTimeout))
	}
	out := make([]*Response, 0, len(reqs))
	for _, req := range reqs {
		if req.IsNotification() {
			continue
		}
		out = append(out, replyErr(req.ID, Errf(ErrCodeTimeout, "request timed out after %s", s.cfg.RequestTimeout)))
	}
	return out
}

// worker drains the job queue, executing each HTTP request's calls in
// order and handing the marshalled body back to the transport goroutine.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopped:
			return
		case j := <-s.jobs:
			s.reg.Gauge("rpc.queue_depth").Set(int64(len(s.jobs)))
			j.done <- s.process(j)
		}
	}
}

// process executes one job and marshals the response body (nil when the
// request was only notifications).
func (s *Server) process(j *job) []byte {
	route := strings.ToLower(j.be.Name())
	responses := make([]*Response, 0, len(j.reqs))
	for i, req := range j.reqs {
		// Abandoned by the transport already? Stop burning the worker.
		select {
		case <-j.ctx.Done():
			if !req.IsNotification() {
				responses = append(responses, replyErr(req.ID, Errf(ErrCodeTimeout, "request timed out")))
			}
			continue
		default:
		}
		if j.errs != nil && j.errs[i] != nil {
			// A malformed call is never a valid notification: it always
			// gets an error response (id null when undeterminable).
			responses = append(responses, replyErr(req.ID, j.errs[i]))
			continue
		}
		resp := s.call(j.ctx, route, j.be, &req)
		if req.IsNotification() {
			continue
		}
		responses = append(responses, resp)
	}
	if len(responses) == 0 {
		return nil
	}
	var body any = responses
	if !j.batch {
		body = responses[0]
	}
	enc, err := json.Marshal(body)
	if err != nil {
		enc, _ = json.Marshal(replyErr(nil, Errf(ErrCodeInternal, "marshalling response: %v", err)))
	}
	return enc
}

// call executes one request against a backend, consulting the
// generation-tagged response cache.
func (s *Server) call(ctx context.Context, route string, be *Backend, req *Request) *Response {
	mName := "rpc." + route + "." + req.Method
	start := time.Now()
	s.reg.Counter(mName + ".requests").Inc()
	defer s.reg.Histogram(mName + ".latency").ObserveSince(start)

	fn, ok := methods[req.Method]
	if !ok {
		s.reg.Counter(mName + ".errors").Inc()
		return s.tagStaleness(route, replyErr(req.ID, Errf(ErrCodeMethodNotFound, "method %q not found", req.Method)))
	}

	// Live/subscription methods bypass the cache AND the breaker: their
	// results move independently of the head (so generation tagging would
	// serve stale cursors), and they never touch storage (so a tripped
	// breaker says nothing about them).
	if uncacheable[req.Method] {
		result, rpcErr := safeCall(ctx, fn, be, req.Params)
		if rpcErr != nil {
			s.reg.Counter(mName + ".errors").Inc()
			return s.tagStaleness(route, replyErr(req.ID, rpcErr))
		}
		enc, err := json.Marshal(result)
		if err != nil {
			s.reg.Counter(mName + ".errors").Inc()
			return s.tagStaleness(route, replyErr(req.ID, Errf(ErrCodeInternal, "marshalling result: %v", err)))
		}
		return s.tagStaleness(route, reply(req.ID, json.RawMessage(enc)))
	}

	// The generation is read BEFORE executing: if the head advances while
	// we compute, the entry lands under the older generation, where no
	// post-advance request will look. See respCache.
	gen := be.Generation()
	cache := s.cacheFor(route, req.Method)
	key := req.CacheKey()
	if raw, ok := cache.get(key, gen); ok {
		s.reg.Counter(mName + ".cache_hits").Inc()
		return s.tagStaleness(route, reply(req.ID, json.RawMessage(raw)))
	}
	s.reg.Counter(mName + ".cache_misses").Inc()

	// Cache misses hit storage: behind an open circuit breaker they are
	// shed with a typed error instead of grinding a failing store (cache
	// hits above still serve — they cost the store nothing).
	br := s.breakerFor(route)
	if !br.Allow() {
		s.reg.Counter(mName + ".errors").Inc()
		s.reg.Counter("rpc." + route + ".breaker_shed").Inc()
		e := Errf(ErrCodeUnavailable, "storage circuit open on %s, retry after cooldown", route)
		e.Data = "circuit-open"
		return s.tagStaleness(route, replyErr(req.ID, e))
	}

	result, rpcErr := safeCall(ctx, fn, be, req.Params)
	if rpcErr != nil {
		// Only dependency failures feed the breaker; caller mistakes
		// (bad params, unknown blocks) say nothing about the store.
		if rpcErr.Code == ErrCodeStorage {
			br.Fail()
		} else {
			br.Success()
		}
		s.reg.Counter(mName + ".errors").Inc()
		return s.tagStaleness(route, replyErr(req.ID, rpcErr))
	}
	br.Success()
	enc, err := json.Marshal(result)
	if err != nil {
		s.reg.Counter(mName + ".errors").Inc()
		return s.tagStaleness(route, replyErr(req.ID, Errf(ErrCodeInternal, "marshalling result: %v", err)))
	}
	cache.put(key, gen, enc)
	return s.tagStaleness(route, reply(req.ID, json.RawMessage(enc)))
}

// tagStaleness stamps a degraded route's lag onto the response envelope.
// The response cache stores result bytes only, so the tag is computed
// fresh per request: a replica that catches back up immediately stops
// tagging, and its responses return to byte-identical with the primary.
func (s *Server) tagStaleness(route string, resp *Response) *Response {
	if fn := s.stalenessFor(route); fn != nil {
		if lag, degraded := fn(); degraded {
			resp.Staleness = &lag
		}
	}
	return resp
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

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
