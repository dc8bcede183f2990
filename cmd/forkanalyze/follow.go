package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"forkwatch/internal/export"
	"forkwatch/internal/live"
	"forkwatch/internal/live/feed"
	"forkwatch/internal/rpc"
	"forkwatch/internal/sim"
)

// followLive attaches the streaming analyzer to a forkserve archive and
// replays its measurement feed through the stateless fork_liveEvents
// read until the run's EOF marker. The client owns the cursor, so every
// transport error is retried from the same position — the follower
// converges even over a lossy path — and a reported gap (the cursor
// fell off the server's replay ring) is surfaced as a warning, since
// observables derived after a gap are no longer exact.
func followLive(target, outDir string, epoch uint64) error {
	routeURL, err := resolveRoute(target)
	if err != nil {
		return err
	}
	fmt.Printf("following %s\n", routeURL)

	an := live.NewAnalyzer(epoch, live.Options{})
	// With -out the decoded events also feed the batch exporter's
	// recorder: the tables are byte-identical to a batch export because
	// the same code writes them.
	rec := &export.Recorder{}
	var tables []sim.Observer
	if outDir != "" {
		tables = []sim.Observer{rec}
	}
	client := rpc.NewClient(routeURL, &http.Client{Timeout: 10 * time.Second})
	var (
		cursor   uint64
		failures int
		lastDay  = -1
	)
	for {
		var page struct {
			Events []feed.Event `json:"events"`
			Cursor uint64       `json:"cursor"`
			Gap    bool         `json:"gap"`
		}
		if err := client.Call(&page, "fork_liveEvents", "events", cursor, 4096); err != nil {
			// The server's answer is final, except a shed request (HTTP
			// 429: rate limit or a full queue); that and anything the
			// transport did are retried from the same cursor.
			var rpcErr *rpc.Error
			if errors.As(err, &rpcErr) && rpcErr.Code != rpc.ErrCodeOverloaded {
				return fmt.Errorf("fork_liveEvents: %w", err)
			}
			failures++
			if failures > 120 {
				return fmt.Errorf("giving up after %d consecutive failed requests: %w", failures, err)
			}
			time.Sleep(250 * time.Millisecond)
			continue
		}
		failures = 0
		if page.Gap {
			fmt.Printf("WARNING: cursor %d fell off the replay ring; observables are inexact from here\n", cursor)
		}
		done := false
		for _, ev := range page.Events {
			if err := an.Apply(ev, tables...); err != nil {
				return fmt.Errorf("applying event %d: %w", ev.Seq, err)
			}
			if ev.Kind == feed.KindDay && ev.Day != nil && ev.Day.Day != lastDay {
				lastDay = ev.Day.Day
				printDayLine(an)
			}
			if ev.Kind == feed.KindEOF {
				done = true
			}
		}
		if done {
			break
		}
		cursor = page.Cursor
		if len(page.Events) == 0 {
			time.Sleep(200 * time.Millisecond)
		}
	}

	printSummary(an)
	if outDir != "" {
		if err := writeTables(rec, outDir); err != nil {
			return err
		}
		fmt.Printf("\nwrote blocks.csv txs.csv days.csv to %s (byte-identical to a batch export of the run)\n", outDir)
	}
	return nil
}

// resolveRoute turns the -follow target into a concrete JSON-RPC route
// URL: a URL that already names a route is used as-is; a bare base URL
// asks /readyz which routes exist and picks the first in sorted order
// (the events stream is global, so any route serves the whole feed).
func resolveRoute(target string) (string, error) {
	u, err := url.Parse(target)
	if err != nil {
		return "", fmt.Errorf("bad -follow URL: %w", err)
	}
	if u.Scheme == "" {
		u, err = url.Parse("http://" + target)
		if err != nil {
			return "", fmt.Errorf("bad -follow URL: %w", err)
		}
	}
	base := strings.TrimSuffix(u.String(), "/")
	if p := strings.Trim(u.Path, "/"); p != "" {
		return base, nil
	}
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		return "", fmt.Errorf("discovering routes: %w", err)
	}
	defer resp.Body.Close()
	// /readyz answers 503 with the same JSON body when degraded — a
	// degraded archive is still followable.
	var rd struct {
		Routes map[string]json.RawMessage `json:"routes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		return "", fmt.Errorf("decoding /readyz: %w", err)
	}
	if len(rd.Routes) == 0 {
		return "", fmt.Errorf("%s/readyz reports no routes", base)
	}
	routes := make([]string, 0, len(rd.Routes))
	for r := range rd.Routes {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	return base + "/" + routes[0], nil
}

// printDayLine prints one rolling line per simulated day barrier.
func printDayLine(an *live.Analyzer) {
	snap := an.Snapshot()
	parts := make([]string, 0, len(snap.Chains))
	for _, c := range snap.Chains {
		parts = append(parts, fmt.Sprintf("%s head=%d txs=%d top5=%.2f h/USD=%.3g",
			c.Chain, c.Head, c.Txs, c.Top5Share, c.HashesPerUSD))
	}
	fmt.Printf("day %3d  %s\n", snap.Days-1, strings.Join(parts, " | "))
}

// printSummary prints the figure-level summary once the feed completes.
func printSummary(an *live.Analyzer) {
	snap := an.Snapshot()
	fmt.Printf("\nrun complete: %d events, %d days, %d chains\n\n",
		snap.Events, snap.Days, len(snap.Chains))
	for _, c := range snap.Chains {
		fmt.Printf("Fig 1  %s blocks %d; window mean delta %.0fs; recovery hour: %d\n",
			c.Chain, c.Blocks, c.WindowMeanDelta, c.RecoveryHour)
	}
	for _, c := range snap.Chains {
		fmt.Printf("Fig 2  %s txs %d; day contract%% %.0f\n", c.Chain, c.Txs, c.DayContractPct)
	}
	for _, p := range snap.Correlations {
		fmt.Printf("Fig 3  hashes/USD correlation %s vs %s: %.4f\n", p.A, p.B, p.Correlation)
	}
	for _, c := range snap.Chains {
		fmt.Printf("Fig 4  echoes into %s: %d (%d same-day)\n", c.Chain, c.Echoes, c.SameDayEchoes)
	}
	for _, c := range snap.Chains {
		fmt.Printf("Fig 5  %s pools %d; top-1 share %.2f; top-5 share %.2f; gini %.2f\n",
			c.Chain, c.Pools, c.Top1Share, c.Top5Share, c.PoolGini)
	}
}

// writeTables writes the recorder's rows into dir with the batch
// exporter's writers.
func writeTables(rec *export.Recorder, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"blocks.csv", func(w io.Writer) error { return export.WriteBlocks(w, rec.Blocks) }},
		{"txs.csv", func(w io.Writer) error { return export.WriteTxs(w, rec.Txs) }},
		{"days.csv", func(w io.Writer) error { return export.WriteDays(w, rec.Days) }},
	} {
		f, err := os.Create(filepath.Join(dir, t.name))
		if err != nil {
			return err
		}
		if err := t.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
