package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"forkwatch/internal/db"
	"forkwatch/internal/db/dbfs"
	"forkwatch/internal/db/diskdb"
	"forkwatch/internal/db/diskdb/faultfile"
)

// stackRow is one stack OpenChainStore can build for the engine.
type stackRow struct {
	name   string
	disk   bool
	faults faultfile.Faults
	crash  bool
	layers []string // outermost -> innermost, see layersOf
}

// stackRows is everything the constructor builds for an engine: {mem,
// disk} x {fault-free, faults on, crash scheduled}. The "faults" rows run
// every read and write error rate at 1, so whether injection is on is
// visible in a single operation. Faults or crashes give the same stack on
// both backends; only the medium under faultfile differs (a MemFS on mem,
// the chain's directory on disk).
func stackRows() []stackRow {
	always := faultfile.Faults{Seed: 3, ReadErrRate: 1, WriteErrRate: 1}
	return []stackRow{
		{name: "mem/fault-free", layers: []string{"memdb"}},
		{name: "mem/faults", faults: always, layers: []string{"retry", "diskdb", "faultfile"}},
		{name: "mem/crash", crash: true, layers: []string{"retry", "diskdb", "faultfile"}},
		{name: "disk/fault-free", disk: true, layers: []string{"diskdb"}},
		{name: "disk/faults", disk: true, faults: always, layers: []string{"retry", "diskdb", "faultfile"}},
		{name: "disk/crash", disk: true, crash: true, layers: []string{"retry", "diskdb", "faultfile"}},
	}
}

func (r stackRow) scenario(t *testing.T) *Scenario {
	sc := NewScenario(1, 1)
	sc.Mode = ModeFull
	sc.DayLength = 600
	sc.Users = 10
	if r.disk {
		sc.Storage = db.Config{Backend: db.BackendDisk, DataDir: t.TempDir()}
	}
	sc.StorageFaults = r.faults
	if r.crash {
		sc.Crashes = []CrashSpec{{Chain: "ETH", Day: 0, Block: 0, Op: 0}}
	}
	return sc
}

// layersOf names a stack's layers from the ChainStore's own fields: the
// outermost layer, the backend and the fault layer under a fault-injected
// diskdb. TestChainStoreStacks checks by behaviour that they are stacked
// in that order.
func layersOf(t *testing.T, st *ChainStore) []string {
	t.Helper()
	var out []string
	if _, ok := st.KV().(*db.Retry); ok {
		out = append(out, "retry")
	}
	switch st.backend.(type) {
	case *db.MemDB:
		out = append(out, "memdb")
	case *diskdb.DB:
		out = append(out, "diskdb")
	default:
		t.Fatalf("unknown backend %T", st.backend)
	}
	if st.faults != nil {
		out = append(out, "faultfile")
	}
	return out
}

// putKV writes one key through a one-op batch.
func putKV(kv db.KV, k, v []byte) error {
	b := kv.NewBatch()
	b.Put(k, v)
	return b.Write()
}

// deleteKV removes one key through a one-op batch.
func deleteKV(kv db.KV, k []byte) error {
	b := kv.NewBatch()
	b.Delete(k)
	return b.Write()
}

func mustPut(t *testing.T, st *ChainStore, k, v string) {
	t.Helper()
	if err := putKV(st.KV(), []byte(k), []byte(v)); err != nil {
		t.Fatalf("Put(%s): %v", k, err)
	}
}

func mustHold(t *testing.T, kv db.KV, k, want string) {
	t.Helper()
	v, ok, err := kv.Get([]byte(k))
	if err != nil || !ok || string(v) != want {
		t.Fatalf("Get(%s) = %q %v %v, want %q", k, v, ok, err, want)
	}
}

// retryAbsorbs checks that row's stack puts its Retry over the fault
// layer: at the chaos suites' rates every operation succeeds within the
// derived budget while the medium's journal records the faults it absorbed.
func retryAbsorbs(t *testing.T, row stackRow) {
	t.Helper()
	row.faults = faultfile.Faults{Seed: 3, ReadErrRate: 0.2, WriteErrRate: 0.2}
	st, err := OpenChainStore(row.scenario(t), 0, "ETH", true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.EnableFaults(true)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%03d", i)
		mustPut(t, st, k, "v")
		mustHold(t, st.KV(), k, "v")
	}
	if st.journalLen() == 0 {
		t.Fatal("200 writes and reads at 20% fault rates left no journal entries")
	}
}

// TestChainStoreStacks is the table over everything the constructor
// builds: its layers and their order, the injection-pause rule, restart
// and Close.
func TestChainStoreStacks(t *testing.T) {
	for _, row := range stackRows() {
		t.Run(row.name, func(t *testing.T) {
			sc := row.scenario(t)
			st, err := OpenChainStore(sc, 0, "ETH", true)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if got := layersOf(t, st); !slices.Equal(got, row.layers) {
				t.Fatalf("layers %v, want %v", got, row.layers)
			}
			if (st.faults != nil) != (row.crash || row.faults.Enabled()) {
				t.Fatalf("fault layer present = %v", st.faults != nil)
			}

			// Bootstrap window: the stack comes back with injection off.
			mustPut(t, st, "genesis", "g")
			mustHold(t, st.KV(), "genesis", "g")
			if st.faults != nil && st.faults.WriteOps() == 0 {
				t.Fatal("a write through diskdb never reached the fault-injected medium")
			}

			st.EnableFaults(true)
			if row.faults.Enabled() {
				retryAbsorbs(t, row)
				if err := putKV(st.KV(), []byte("k"), []byte("v")); !db.IsTransient(err) {
					t.Fatalf("Put with injection on = %v, want the injected transient error", err)
				}
				if _, _, err := st.KV().Get([]byte("genesis")); !db.IsTransient(err) {
					t.Fatalf("Get with injection on = %v, want the injected transient error", err)
				}
			} else {
				mustPut(t, st, "k", "v")
			}

			if st.faults != nil {
				// Kill the store on its next write (an armed crash wins over
				// the random plan), then restart it with injection still on,
				// as the engine does.
				before := st.backend
				st.armCrash(0)
				if err := putKV(st.KV(), []byte("torn"), []byte("x")); err == nil || db.IsTransient(err) {
					t.Fatalf("Put on an armed store = %v, want a crash", err)
				}
				if !st.crashed() {
					t.Fatal("store not crashed after the armed write")
				}
				// The recovery scan reads every segment: with read errors
				// at rate 1 it only succeeds because injection is paused
				// around it.
				if err := st.restart(); err != nil {
					t.Fatalf("restart: %v", err)
				}
				if st.crashed() {
					t.Fatal("still crashed after restart")
				}
				if st.backend == before {
					t.Fatal("restart kept the same backend (it must re-run diskdb.Open)")
				}
				if got := layersOf(t, st); !slices.Equal(got, row.layers) {
					t.Fatalf("layers after restart %v, want %v", got, row.layers)
				}
				if st.journalLen() == 0 {
					t.Fatal("crash and reopen left no journal entries")
				}
				// Injection is on again once the scan is done.
				if row.faults.Enabled() {
					if err := putKV(st.KV(), []byte("k2"), []byte("v")); !db.IsTransient(err) {
						t.Fatalf("Put after restart = %v: injection did not resume", err)
					}
				}
				// What was durable before the crash survived; the torn
				// write did not.
				st.EnableFaults(false)
				mustHold(t, st.KV(), "genesis", "g")
				if ok, err := st.KV().Has([]byte("torn")); ok || err != nil {
					t.Fatalf("torn write visible after restart: %v %v", ok, err)
				}
			}

			// Close reaches the medium: the closed disk store refuses the
			// write, and the directory reopens holding what was durable.
			mustPut(t, st, "last", "l")
			if err := st.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if !row.disk {
				return
			}
			if err := putKV(st.KV(), []byte("after"), []byte("x")); err == nil {
				t.Fatal("a closed disk stack accepted a write")
			}
			osfs, err := dbfs.NewOSFS(ChainDataDir(sc.Storage.DataDir, "ETH"))
			if err != nil {
				t.Fatal(err)
			}
			again, err := diskdb.Open(osfs, diskdb.Options{})
			if err != nil {
				t.Fatalf("second diskdb.Open of the directory: %v", err)
			}
			defer again.Close()
			mustHold(t, again, "genesis", "g")
			mustHold(t, again, "last", "l")
		})
	}
}

// TestServingStoreStacks: a serving store (engine=false) stays bare unless
// the scenario has a fault plan, which it applies through the same fault
// stack as the engine; a crash schedule alone, which only mining applies,
// leaves it bare.
func TestServingStoreStacks(t *testing.T) {
	for _, row := range stackRows() {
		t.Run(row.name, func(t *testing.T) {
			st, err := OpenChainStore(row.scenario(t), 0, "ETH", false)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			want := row.layers
			if !row.faults.Enabled() {
				want = []string{"memdb"}
				if row.disk {
					want = []string{"diskdb"}
				}
			}
			if got := layersOf(t, st); !slices.Equal(got, want) {
				t.Fatalf("layers %v, want %v", got, want)
			}
			mustPut(t, st, "genesis", "g") // injection off until EnableFaults
			st.EnableFaults(true)
			if _, _, err := st.KV().Get([]byte("genesis")); row.faults.Enabled() != db.IsTransient(err) {
				t.Fatalf("Get with the plan enabled = %v", err)
			}
		})
	}
}

// TestEngineInjectionStartsAfterGenesis: New writes every genesis with
// injection off (rate-1 faults would otherwise fail it) and hands the
// engine stacks that inject from the first mined block on.
func TestEngineInjectionStartsAfterGenesis(t *testing.T) {
	for _, row := range stackRows() {
		if !row.faults.Enabled() {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			eng, err := New(row.scenario(t))
			if err != nil {
				t.Fatalf("New under rate-1 faults: %v", err)
			}
			defer eng.Close()
			for _, p := range eng.parts {
				if err := putKV(p.storage.KV(), []byte("k"), []byte("v")); !db.IsTransient(err) {
					t.Fatalf("%s: Put after New = %v, want the injected transient error", p.name, err)
				}
			}
		})
	}
}

// TestRetryAttemptsDerived pins the budget for the plans the chaos suites
// run (they used to ask for 24 by hand) and for the edges.
func TestRetryAttemptsDerived(t *testing.T) {
	for _, tc := range []struct {
		f    faultfile.Faults
		want int
	}{
		{faultfile.Faults{}, 1},
		// torn=0.002: per attempt 1 - 0.8*0.8*0.998 = 0.361
		{faultfile.Faults{ReadErrRate: 0.2, WriteErrRate: 0.2, ShortWriteRate: 0.002, TornWriteRate: 0.002}, 37},
		{faultfile.Faults{ReadErrRate: 0.2}, 23}, // 0.2^23 = 8.4e-17
		{faultfile.Faults{ReadErrRate: 1}, 1},
	} {
		if got := retryAttempts(tc.f); got != tc.want {
			t.Errorf("retryAttempts(%+v) = %d, want %d", tc.f, got, tc.want)
		}
	}
}

// TestChainStoreMatchesModel drives every stack with a seeded random
// put/delete/batch/close/reopen sequence (a put or delete is a one-op
// batch) and checks it against a map. Fault rates are zero (the
// fault-stack rows are armed by a crash schedule or a stall-only plan), so
// the model is exact: a write is visible and durable at once, and a close
// drops everything on mem.
func TestChainStoreMatchesModel(t *testing.T) {
	for _, row := range stackRows() {
		if row.faults.Enabled() {
			row.faults = faultfile.Faults{Seed: 3, StallEvery: 1 << 30, Stall: time.Nanosecond}
		}
		t.Run(row.name, func(t *testing.T) {
			sc := row.scenario(t)
			open := func() *ChainStore {
				st, err := OpenChainStore(sc, 0, "ETH", true)
				if err != nil {
					t.Fatal(err)
				}
				st.EnableFaults(true)
				return st
			}
			st := open()
			defer func() { st.Close() }()

			r := rand.New(rand.NewSource(11))
			key := func() []byte { return []byte(fmt.Sprintf("k%02d", r.Intn(48))) }
			val := func() []byte { return []byte(fmt.Sprintf("v%d", r.Int63())) }
			view := map[string][]byte{} // what reads must see
			put := func(k, v []byte) { view[string(k)] = v }
			del := func(k []byte) { delete(view, string(k)) }
			for step := 0; step < 4000; step++ {
				var err error
				switch n := r.Intn(100); {
				case n < 45:
					k, v := key(), val()
					err = putKV(st.KV(), k, v)
					put(k, v)
				case n < 60:
					k := key()
					err = deleteKV(st.KV(), k)
					del(k)
				case n < 97:
					b := st.KV().NewBatch()
					for i := r.Intn(6); i >= 0; i-- {
						if k := key(); r.Intn(4) == 0 {
							b.Delete(k)
							del(k)
						} else {
							v := val()
							b.Put(k, v)
							put(k, v)
						}
					}
					err = b.Write()
				default:
					err = st.Close()
					if !row.disk {
						view = map[string][]byte{}
					}
					st = open()
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				k := key()
				got, ok, err := st.KV().Get(k)
				want, wantOK := view[string(k)]
				if err != nil || ok != wantOK || !bytes.Equal(got, want) {
					t.Fatalf("step %d: Get(%s) = %q %v %v, model %q %v", step, k, got, ok, err, want, wantOK)
				}
				if has, err := st.KV().Has(k); err != nil || has != wantOK {
					t.Fatalf("step %d: Has(%s) = %v %v, model %v", step, k, has, err, wantOK)
				}
			}
			for i := 0; i < 48; i++ {
				k := fmt.Sprintf("k%02d", i)
				got, ok, err := st.KV().Get([]byte(k))
				if want, wantOK := view[k]; err != nil || ok != wantOK || !bytes.Equal(got, want) {
					t.Fatalf("final Get(%s) = %q %v %v, model %q %v", k, got, ok, err, want, wantOK)
				}
			}
		})
	}
}
