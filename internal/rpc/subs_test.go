package rpc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"forkwatch/internal/live/feed"
)

// liveResult is the fork_liveEvents envelope the tests decode.
type liveResult struct {
	Result LivePage `json:"result"`
	Error  *Error   `json:"error"`
}

// TestLiveTransportsOverASmallRing attaches an 8-event feed that has
// published 20 events to a route and reads it from cursor 0 through both
// transports: each reports the gap, then delivers exactly the ring's
// window, the same events in the same order. While the stream is open
// live.subscribers counts it; EOF ends it.
func TestLiveTransportsOverASmallRing(t *testing.T) {
	_, _, srv := newTestPair(t)
	f := feed.NewFeed(srv.Registry(), 8)
	srv.routes["eth"].be.SetLive(&LiveSource{Feed: f})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	subscribers := func() int64 {
		v, _ := srv.Registry().Snapshot()["live.subscribers"].(int64)
		return v
	}
	if _, ok := srv.Registry().Snapshot()["live.subscribers"]; !ok || subscribers() != 0 {
		t.Fatalf("live.subscribers before any stream = %v", srv.Registry().Snapshot()["live.subscribers"])
	}

	for n := uint64(0); n < 20; n++ {
		f.Publish(feed.Event{Kind: feed.KindHead, Head: &feed.HeadEvent{Chain: "ETH", Number: n, Difficulty: "1"}})
	}

	var polled []feed.Event
	for cursor, page := uint64(0), 0; ; page++ {
		_, raw := postJSON(t, ts.URL+"/eth",
			fmt.Sprintf(`{"jsonrpc":"2.0","id":1,"method":"fork_liveEvents","params":["events",%d,3]}`, cursor))
		var res liveResult
		if err := json.Unmarshal(raw, &res); err != nil || res.Error != nil {
			t.Fatalf("fork_liveEvents: %v: %s", err, raw)
		}
		if res.Result.Gap != (page == 0) {
			t.Errorf("page %d from cursor %d: gap = %v", page, cursor, res.Result.Gap)
		}
		polled = append(polled, res.Result.Events...)
		if len(res.Result.Events) == 0 {
			break
		}
		cursor = res.Result.Cursor
	}

	resp, err := http.Get(ts.URL + "/eth/stream?stream=events&cursor=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := bufio.NewScanner(resp.Body)
	if !lines.Scan() {
		t.Fatalf("no stream header: %v", lines.Err())
	}

	var streamed []feed.Event
	sawGap := false
	for lines.Scan() {
		var note struct {
			Params struct {
				Event *feed.Event `json:"event"`
				Gap   bool        `json:"gap"`
			} `json:"params"`
		}
		if err := json.Unmarshal(lines.Bytes(), &note); err != nil {
			t.Fatalf("stream line %q: %v", lines.Bytes(), err)
		}
		if note.Params.Gap {
			if len(streamed) > 0 {
				t.Error("gap notification after events")
			}
			sawGap = true
		}
		if note.Params.Event != nil {
			streamed = append(streamed, *note.Params.Event)
		}
		// The window is delivered and the stream is waiting at the head:
		// it counts as a subscriber until the EOF published here ends it.
		if len(streamed) == 8 {
			if n := subscribers(); n != 1 {
				t.Errorf("live.subscribers with one open stream = %d", n)
			}
			f.Publish(feed.Event{Kind: feed.KindEOF})
		}
	}
	if !sawGap {
		t.Error("stream from cursor 0 reported no gap")
	}
	for deadline := time.Now().Add(5 * time.Second); subscribers() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("live.subscribers after the stream ended = %d", subscribers())
		}
		time.Sleep(time.Millisecond)
	}

	// 20 events through an 8-slot ring: seqs 12..19; the stream then saw
	// EOF arrive as seq 20.
	if len(polled) != 8 || polled[0].Seq != 12 {
		t.Fatalf("polled %d events: %+v", len(polled), polled)
	}
	if len(streamed) != 9 || streamed[8].Kind != feed.KindEOF || streamed[8].Seq != 20 {
		t.Fatalf("streamed %d events: %+v", len(streamed), streamed)
	}
	got, _ := json.Marshal(streamed[:8])
	want, _ := json.Marshal(polled)
	if string(got) != string(want) {
		t.Errorf("transports diverge:\n stream %s\n poll   %s", got, want)
	}
}

// TestMethodTableLiveSet: the dispatch table's live methods are exactly
// fork_liveEvents and fork_liveSnapshot. Behind an open storage breaker
// they still answer, count no cache traffic and leave the cache empty;
// every other method is looked up in the cache and then shed.
func TestMethodTableLiveSet(t *testing.T) {
	var live []string
	for m, spec := range methods {
		if spec.live {
			live = append(live, m)
		}
	}
	sort.Strings(live)
	if got := strings.Join(live, ","); got != "fork_liveEvents,fork_liveSnapshot" {
		t.Fatalf("live methods = %s", got)
	}

	_, _, srv := newTestPair(t)
	rt := srv.routes["eth"]
	rt.be.SetLive(&LiveSource{Feed: feed.NewFeed(srv.Registry(), 8), Snapshot: func() any { return "snapshot" }})
	for i := 0; i < breakerThreshold; i++ {
		rt.breaker.Fail()
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	params := map[string]string{"fork_liveEvents": `["events",0]`, "fork_liveSnapshot": `[]`}
	for m, spec := range methods {
		p, ok := params[m]
		if !ok {
			p = `[]` // a cached method is shed before its params are read
		}
		_, raw := postJSON(t, ts.URL+"/eth", `{"jsonrpc":"2.0","id":1,"method":"`+m+`","params":`+p+`}`)
		var resp Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("%s: %v: %s", m, err, raw)
		}
		_, counted := srv.Registry().Snapshot()["rpc.eth."+m+".cache_misses"]
		if spec.live {
			if resp.Error != nil || counted {
				t.Errorf("live %s behind an open breaker: error %+v, cache_misses counted %v", m, resp.Error, counted)
			}
			continue
		}
		if resp.Error == nil || resp.Error.Code != ErrCodeUnavailable || resp.Error.Data != "circuit-open" {
			t.Errorf("cached %s behind an open breaker: error %+v, want circuit-open", m, resp.Error)
		}
		if n := srv.Registry().Counter("rpc.eth." + m + ".cache_misses").Value(); n != 1 {
			t.Errorf("cached %s: %d cache misses, want 1", m, n)
		}
	}
	if entries, _ := rt.cache.stats(); entries != 0 {
		t.Errorf("cache holds %d entries after live answers, want 0", entries)
	}
}
