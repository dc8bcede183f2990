package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"forkwatch"
	"forkwatch/internal/analysis"
	"forkwatch/internal/export"
	"forkwatch/internal/live"
	"forkwatch/internal/live/feed"
	"forkwatch/internal/rpc"
	"forkwatch/internal/sim"
)

// followLive attaches the streaming analyzer to a forkserve archive and
// replays its measurement feed through the stateless fork_liveEvents
// read until the run's EOF marker. targets is a comma-separated list of
// servers publishing the same feed; the client fails over between them
// per read. The follower owns the cursor, so a read no server answered
// is retried from the same position — the follower converges over a
// lossy path and across a server dying — and a reported gap (the cursor
// fell off the server's replay ring) is surfaced as a warning, since
// observables derived after a gap are no longer exact.
func followLive(targets, outDir string, epoch uint64) error {
	hc := &http.Client{Timeout: 10 * time.Second}
	endpoints, err := resolveRoutes(targets, hc)
	if err != nil {
		return err
	}
	fmt.Printf("following %s\n", strings.Join(endpoints, ","))
	client, err := rpc.NewFailoverClient(rpc.FailoverConfig{Endpoints: endpoints, HTTPClient: hc})
	if err != nil {
		return err
	}
	defer client.Close()

	an := live.NewAnalyzer(epoch, live.Options{})
	// The decoded events also feed a batch collector, whose O1–O6 lines
	// the follower prints at EOF, and with -out the batch exporter's
	// table writer: lines and tables match a batch run's because the same
	// code derives them.
	col := analysis.NewCollector(epoch)
	also := []sim.Observer{col}
	var tables *export.Tables
	if outDir != "" {
		if tables, err = export.NewTables(outDir); err != nil {
			return err
		}
		defer tables.Abort() // a follow that fails publishes no table
		also = append(also, tables)
	}
	var (
		cursor   uint64
		failures int
		lastDay  = -1
	)
	for {
		var page rpc.LivePage
		if outc, err := client.Call(&page, "fork_liveEvents", "events", cursor, 4096); err != nil {
			// A JSON-RPC error about the request itself is final. Every
			// infrastructure class (shed, draining, timeout, transport)
			// has already been tried on each endpoint; wait and read the
			// same cursor again.
			if outc.Class == rpc.ClassRPCError {
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
			if err := an.Apply(ev, also...); err != nil {
				return fmt.Errorf("applying event %d: %w", ev.Seq, err)
			}
			if ev.Kind == feed.KindDay && ev.Day.Day != lastDay {
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

	chains := col.Chains()
	if len(chains) == 0 {
		return fmt.Errorf("the feed ended without a day event")
	}
	snap := an.Snapshot()
	fmt.Printf("\nrun complete: %d events, %d days, %d chains\n", snap.Events, snap.Days, len(snap.Chains))
	fmt.Print(forkwatch.Observations(col, chains))
	if tables != nil {
		if err := tables.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote blocks.csv txs.csv days.csv to %s (byte-identical to a batch export of the run)\n", outDir)
	}
	return nil
}

// resolveRoutes turns the -follow list into one JSON-RPC route URL per
// server. A URL that already names a route is used as-is; the bare base
// URLs all get the same route, discovered from the first of them whose
// /readyz answers (so a dead server in the list does not stop the
// follower before its first read).
func resolveRoutes(targets string, hc *http.Client) ([]string, error) {
	var endpoints []string
	var bare []int // endpoints still lacking a route
	for _, target := range strings.Split(targets, ",") {
		if !strings.Contains(target, "://") {
			target = "http://" + target
		}
		u, err := url.Parse(target)
		if err != nil {
			return nil, fmt.Errorf("bad -follow URL: %w", err)
		}
		if strings.Trim(u.Path, "/") == "" {
			bare = append(bare, len(endpoints))
		}
		endpoints = append(endpoints, strings.TrimSuffix(u.String(), "/"))
	}
	if len(bare) == 0 {
		return endpoints, nil
	}
	var route string
	var err error
	for _, i := range bare {
		if route, err = discoverRoute(endpoints[i], hc); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	for _, i := range bare {
		endpoints[i] += "/" + route
	}
	return endpoints, nil
}

// discoverRoute asks base's /readyz which routes exist and picks the
// first in sorted order (the events stream is global, so any route
// serves the whole feed).
func discoverRoute(base string, hc *http.Client) (string, error) {
	resp, err := hc.Get(base + "/readyz")
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
		return "", fmt.Errorf("decoding %s/readyz: %w", base, err)
	}
	if len(rd.Routes) == 0 {
		return "", fmt.Errorf("%s/readyz reports no routes", base)
	}
	routes := make([]string, 0, len(rd.Routes))
	for r := range rd.Routes {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	return routes[0], nil
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
