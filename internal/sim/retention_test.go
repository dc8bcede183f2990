//go:build go1.24

package sim

import (
	"runtime"
	"testing"
	"weak"

	"forkwatch/internal/chain"
)

// TestRunLeavesNoDayScratch: once Run returns, an engine kept for its
// ledgers pins none of the day loop's scratch — no pooled block event,
// no transaction the pending queue, the block scratch or the echo queues
// still held on the last day, and none of the echo attacker's replayed
// and mirrored sets.
func TestRunLeavesNoDayScratch(t *testing.T) {
	for _, par := range []int{1, 2} {
		sc := shortScenario(13, 4, ModeFast)
		sc.Parallelism = par
		eng, err := New(sc)
		if err != nil {
			t.Fatal(err)
		}
		events := map[weak.Pointer[BlockEvent]]bool{}
		var txs []weak.Pointer[chain.Transaction]
		var echoSets int
		hold := func(list []*chain.Transaction) {
			for _, tx := range list {
				txs = append(txs, weak.Make(tx))
			}
		}
		eng.AddObserver(&observerFunc{
			onBlock: func(ev *BlockEvent) { events[weak.Make(ev)] = true },
			onDay: func(ev *DayEvent) {
				if ev.Day != sc.Days-1 {
					return // the next day is mining on these queues
				}
				for _, p := range eng.parts {
					for _, pl := range p.pending {
						txs = append(txs, weak.Make(pl.tx))
					}
					hold(p.txScratch)
				}
				for _, ct := range eng.Workload.chains {
					hold(ct.replayQueue)
				}
				echoSets = len(eng.Workload.replayed) + len(eng.Workload.mirrored)
			},
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 || len(txs) == 0 || echoSets == 0 {
			t.Fatalf("parallelism %d: nothing to check (%d events, %d transactions, %d echo entries)", par, len(events), len(txs), echoSets)
		}
		if n := len(eng.Workload.replayed) + len(eng.Workload.mirrored); n != 0 {
			t.Fatalf("parallelism %d: the echo sets still hold %d entries after Run", par, n)
		}
		runtime.GC()
		for p := range events {
			if p.Value() != nil {
				t.Fatalf("parallelism %d: a pooled block event is still reachable after Run", par)
			}
		}
		for _, p := range txs {
			if p.Value() != nil {
				t.Fatalf("parallelism %d: a queued transaction is still reachable after Run", par)
			}
		}
		runtime.KeepAlive(eng)
	}
}
