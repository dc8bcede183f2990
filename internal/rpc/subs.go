// Live-measurement RPC: the fork_live* namespace, backed by a feed.Feed
// attached to the route's backend. Both transports are loops over the
// feed's one read path, the cursor read:
//
//   - stateless poll: fork_liveEvents(stream, cursor[, max]) returns a
//     page and the cursor to resume from. The client owns the cursor, so
//     every call is idempotent — a dropped response is just asked again,
//     and no event is missed until the cursor falls off the replay ring
//     (which the client sees as an explicit gap flag). A poller sleeps
//     between empty pages.
//   - persistent streams: GET /<route>/stream holds the connection open
//     and pushes newline-delimited JSON notifications as events arrive
//     (the WebSocket-style transport, without a WebSocket dependency).
//
// The dispatch table (api.go) marks both methods live: uncached — their
// results move independently of the chain head — and not gated by the
// storage breaker, since they never touch the store.
package rpc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"forkwatch/internal/live/feed"
)

// LiveSource is what a backend needs to answer the live methods: the
// event feed and a snapshot source for fork_liveSnapshot.
type LiveSource struct {
	Feed     *feed.Feed
	Snapshot func() any
}

// SetLive attaches the live measurement plane to this backend's route.
// Routes without one answer live methods with ErrCodeUnavailable.
func (b *Backend) SetLive(src *LiveSource) { b.live = src }

// Live returns the attached live source, or nil.
func (b *Backend) Live() *LiveSource { return b.live }

// maxPollBatch caps the events returned per read.
const maxPollBatch = 4096

func liveFor(b *Backend) (*LiveSource, *Error) {
	if b.live == nil || b.live.Feed == nil {
		return nil, Errf(ErrCodeUnavailable, "live plane not attached on %s", b.name)
	}
	return b.live, nil
}

// liveChainFilter returns the chain filter a stream carries on this
// route: newHeads is scoped to the route's own chain, the rest are
// global.
func liveChainFilter(b *Backend, stream string) string {
	if stream == feed.StreamNewHeads {
		return b.name
	}
	return ""
}

// LivePage is the fork_liveEvents payload, the one declaration servers
// encode and followers decode: the matching events, the cursor to read
// from next, whether the read skipped events that had already left the
// replay ring, and the feed's next sequence number.
type LivePage struct {
	Events []feed.Event `json:"events"`
	Cursor uint64       `json:"cursor"`
	Gap    bool         `json:"gap"`
	Seq    uint64       `json:"seq,omitempty"`
}

// forkLiveEvents is the stateless read: params [stream, cursor,
// optional max]. No server-side registration — the client owns the
// cursor, so the call is idempotent and safe to retry over lossy
// transports.
func forkLiveEvents(_ context.Context, b *Backend, params []json.RawMessage) (any, *Error) {
	src, rpcErr := liveFor(b)
	if rpcErr != nil {
		return nil, rpcErr
	}
	if len(params) < 2 || len(params) > 3 {
		return nil, Errf(ErrCodeInvalidParams, "fork_liveEvents takes (stream, cursor[, max])")
	}
	var stream string
	if err := decodeParam(params[0], &stream, "stream"); err != nil {
		return nil, err
	}
	if !feed.ValidStream(stream) {
		return nil, Errf(ErrCodeInvalidParams, "unknown stream %q", stream)
	}
	var cursor uint64
	if err := decodeParam(params[1], &cursor, "cursor"); err != nil {
		return nil, err
	}
	max := 0
	if len(params) == 3 {
		if err := decodeParam(params[2], &max, "max"); err != nil {
			return nil, err
		}
	}
	if max <= 0 || max > maxPollBatch {
		max = maxPollBatch
	}
	events, next, gap := src.Feed.ReadSince(stream, liveChainFilter(b, stream), cursor, max)
	if events == nil {
		events = []feed.Event{}
	}
	return LivePage{Events: events, Cursor: next, Gap: gap, Seq: src.Feed.Seq()}, nil
}

// forkLiveSnapshot returns the rolling O1–O6 view: params [].
func forkLiveSnapshot(_ context.Context, b *Backend, params []json.RawMessage) (any, *Error) {
	src, rpcErr := liveFor(b)
	if rpcErr != nil {
		return nil, rpcErr
	}
	if src.Snapshot == nil {
		return nil, Errf(ErrCodeUnavailable, "live snapshots not available on %s", b.name)
	}
	if err := needParams(params, 0, "fork_liveSnapshot()"); err != nil {
		return nil, err
	}
	return src.Snapshot(), nil
}

// streamNotification is one NDJSON line on /<route>/stream.
type streamNotification struct {
	JSONRPC string       `json:"jsonrpc"`
	Method  string       `json:"method"`
	Params  streamParams `json:"params"`
}

type streamParams struct {
	Stream    string      `json:"stream"`
	Event     *feed.Event `json:"event,omitempty"`
	Gap       bool        `json:"gap,omitempty"`
	Cursor    uint64      `json:"cursor"`
	Staleness *uint64     `json:"staleness,omitempty"`
}

// serveStream is the persistent transport: GET /<route>/stream?stream=
// newHeads&cursor=N pushes matching events as newline-delimited JSON
// until the run's EOF, the client hangs up, or the server drains. It
// runs on the HTTP handler goroutine — NOT the bounded worker pool — so
// a thousand idle streams cost goroutines, not workers; drainCh (not
// the inflight count) tears them down at shutdown.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, route string, be *Backend) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "streams are GET", http.StatusMethodNotAllowed)
		return
	}
	src := be.Live()
	if src == nil || src.Feed == nil {
		http.Error(w, "live plane not attached", http.StatusNotFound)
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	stream := r.URL.Query().Get("stream")
	if stream == "" {
		stream = feed.StreamNewHeads
	}
	if !feed.ValidStream(stream) {
		http.Error(w, fmt.Sprintf("unknown stream %q", stream), http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by transport", http.StatusNotImplemented)
		return
	}
	cursor := src.Feed.Seq()
	if q := r.URL.Query().Get("cursor"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, "bad cursor", http.StatusBadRequest)
			return
		}
		cursor = v
	}
	chainFilter := liveChainFilter(be, stream)

	subs := s.reg.Gauge("live.subscribers")
	subs.Add(1)
	defer subs.Add(-1)
	s.reg.Counter("rpc." + route + ".streams").Inc()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	// Header line: the negotiated stream and starting cursor, so the
	// client can resume on reconnect.
	_ = enc.Encode(streamParams{Stream: stream, Cursor: cursor})
	flusher.Flush()

	for {
		events, next, gap := src.Feed.ReadSince(stream, chainFilter, cursor, maxPollBatch)
		var staleness *uint64
		if fn := be.stale; fn != nil {
			if lag, degraded := fn(); degraded {
				staleness = &lag
			}
		}
		if gap {
			if err := enc.Encode(streamNotification{
				JSONRPC: "2.0", Method: "fork_subscription",
				Params: streamParams{Stream: stream, Gap: true, Cursor: next, Staleness: staleness},
			}); err != nil {
				return
			}
		}
		done := false
		for i := range events {
			ev := &events[i]
			if err := enc.Encode(streamNotification{
				JSONRPC: "2.0", Method: "fork_subscription",
				Params: streamParams{Stream: stream, Event: ev, Cursor: ev.Seq + 1, Staleness: staleness},
			}); err != nil {
				return
			}
			if ev.Kind == feed.KindEOF {
				done = true
			}
		}
		if len(events) > 0 || gap {
			flusher.Flush()
		}
		if done {
			return
		}
		cursor = next
		select {
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			return
		case <-s.stopped:
			return
		case <-src.Feed.WaitChan(cursor):
		}
	}
}
