package main

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"forkwatch"
	"forkwatch/internal/analysis"
	"forkwatch/internal/chain"
	"forkwatch/internal/db"
	"forkwatch/internal/keccak"
	"forkwatch/internal/live"
	"forkwatch/internal/rlp"
	"forkwatch/internal/rpc"
	"forkwatch/internal/serve"
	"forkwatch/internal/state"
	"forkwatch/internal/trie"
	"forkwatch/internal/types"
)

// The probes time calls into one layer's public functions, beside the
// traced workload whose end-to-end metrics that layer should move. They
// run once per traced run; their inputs come from the run's seed.

// ------------------------------------------------------------------- sim

// dayTimer counts the engine's output and times the gaps between OnDay
// calls: the engine's per-day step as an observer sees it.
type dayTimer struct {
	last   time.Time
	gapsUs []float64
	blocks int
	txs    int
}

func (d *dayTimer) OnBlock(ev *forkwatch.BlockEvent) {
	d.blocks++
	d.txs += len(ev.Txs)
}

func (d *dayTimer) OnDay(*forkwatch.DayEvent) {
	now := time.Now()
	d.gapsUs = append(d.gapsUs, us(now.Sub(d.last)))
	d.last = now
}

// probeSim measures the fast-ledger engine alone and the two analyzers
// fed by it, over the figures workload's scenario.
func probeSim(rc *runCtx, out *outcome) error {
	runEngine := func(parallelism int, obs ...forkwatch.Observer) (time.Duration, error) {
		sc := forkwatch.NewScenario(rc.seed, rc.sc.figureDays)
		sc.Parallelism = parallelism
		eng, err := forkwatch.NewEngine(sc)
		if err != nil {
			return 0, err
		}
		for _, o := range obs {
			eng.AddObserver(o)
		}
		runtime.GC()
		t0 := time.Now()
		err = eng.Run()
		return time.Since(t0), err
	}

	days := &dayTimer{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	days.last = time.Now()
	d, err := runEngine(0, days)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	out.layer["sim.run_ms"] = ms(d)
	out.layer["sim.blocks"] = float64(days.blocks)
	out.layer["sim.txs"] = float64(days.txs)
	out.layer["sim.ns_per_block"] = float64(d.Nanoseconds()) / float64(max(days.blocks, 1))
	out.layer["sim.allocs_per_run"] = float64(m1.Mallocs - m0.Mallocs)
	out.layer["sim.alloc_mb_per_run"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	if len(days.gapsUs) > 1 {
		gaps := days.gapsUs[1:] // the first gap holds the engine's construction
		out.layer["sim.day_p50_us"] = percentile(gaps, 0.50)
		out.layer["sim.day_p95_us"] = percentile(gaps, 0.95)
	}

	p1, err := runEngine(1, &dayTimer{})
	if err != nil {
		return err
	}
	out.layer["sim.run_p1_ms"] = ms(p1)
	out.layer["sim.parallel_speedup"] = float64(p1) / float64(d)

	// Both analyzers observe the same run, so they see the same events.
	sc := forkwatch.NewScenario(rc.seed, rc.sc.figureDays)
	col := &timedObserver{inner: analysis.NewCollector(sc.Epoch)}
	liv := &timedObserver{inner: live.NewAnalyzer(sc.Epoch, live.Options{})}
	if _, err := runEngine(0, col, liv); err != nil {
		return err
	}
	out.layer["analysis.collect_ms"] = ms(col.total)
	out.layer["live.analyze_ms"] = ms(liv.total)

	rep := &forkwatch.Report{Scenario: sc, Collector: col.inner.(*forkwatch.Collector)}
	t0 := time.Now()
	rep.Figure1()
	rep.Figure2()
	rep.Figure3()
	rep.Figure4()
	rep.Figure5()
	_ = rep.Summary()
	out.layer["analysis.figures_ms"] = ms(time.Since(t0))
	return nil
}

// ------------------------------------------------------------- write path

// seededKeys returns n distinct 32-byte keys and ~70-byte values.
func seededKeys(seed int64, n int) (keys, values [][]byte) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		k := make([]byte, 32)
		r.Read(k)
		binary.BigEndian.PutUint32(k[28:], uint32(i)) // distinct whatever the draws
		v := make([]byte, 40+r.Intn(60))
		r.Read(v)
		keys, values = append(keys, k), append(values, v)
	}
	return keys, values
}

// probeWritePath measures the layers under the archive build: the same
// scenario on the memory backend (the difference is what diskdb costs),
// the store's counters, and the unit costs of codec, trie, state, hash
// and store calls.
func probeWritePath(rc *runCtx, out *outcome, built archiveID, stats db.Stats, dir string) error {
	// The same build on the memory backend.
	sc := denseScenario(rc.seed, rc.sc, rc.sc.denseShort, forkwatch.StorageConfig{})
	res, run, err := serve.BuildLive(sc, rpc.ServerConfig{})
	if err != nil {
		return err
	}
	defer res.Close()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if err := run(); err != nil {
		return err
	}
	memRun := time.Since(t0)
	runtime.ReadMemStats(&m1)
	var blocks []*chain.Block
	txs := 0
	for _, c := range res.Chains {
		bs := c.Ledger.BC.CanonicalBlocks(1, c.Ledger.BC.Head().Number())
		blocks = append(blocks, bs...)
		for _, b := range bs {
			txs += len(b.Txs)
		}
	}
	nb, ntx := float64(max(len(blocks), 1)), float64(max(txs, 1))
	out.layer["sim.run_full_mem_ms"] = ms(memRun)
	out.layer["sim.full_blocks"] = float64(len(blocks))
	out.layer["sim.full_txs"] = float64(txs)
	out.layer["sim.ns_per_tx"] = out.layer["sim.run_full_ms"] * 1e6 / ntx
	out.layer["sim.full_allocs_per_tx"] = float64(m1.Mallocs-m0.Mallocs) / ntx
	out.layer["diskdb.build_cost_ms"] = out.layer["sim.run_full_ms"] - ms(memRun)
	out.layer["db.build_writes_per_block"] = float64(stats.Writes) / nb
	out.layer["db.build_reads_per_block"] = float64(stats.Reads) / nb
	out.layer["diskdb.bytes_per_block"] = float64(built.DiskBytes) / nb

	// Block codec, RLP and keccak over the mined blocks.
	encs := make([][]byte, len(blocks))
	t0 = time.Now()
	for i, b := range blocks {
		encs[i] = b.Encode()
	}
	out.layer["chain.encode_us_per_block"] = us(time.Since(t0)) / nb
	exportBytes := 0
	for _, e := range encs {
		exportBytes += len(e)
	}
	out.layer["chain.export_bytes"] = float64(exportBytes)
	if exportBytes > 0 {
		out.layer["diskdb.write_amp"] = float64(built.DiskBytes) / float64(exportBytes)
	}
	t0 = time.Now()
	for _, e := range encs {
		if _, err := rlp.Decode(e); err != nil {
			return err
		}
	}
	out.layer["rlp.decode_mb_per_s"] = float64(exportBytes) / 1e6 / time.Since(t0).Seconds()
	t0 = time.Now()
	for _, e := range encs {
		keccak.Sum256(e)
	}
	out.layer["keccak.mb_per_s"] = float64(exportBytes) / 1e6 / time.Since(t0).Seconds()

	segments := 0
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(path, ".log") {
			segments++
		}
		return err
	})
	if err != nil {
		return err
	}
	out.layer["diskdb.segments"] = float64(segments)

	// Trie: insert and commit n keys, then read them back through a trie
	// reopened at the root, so every Get resolves nodes from the store.
	n := rc.sc.probeKeys
	keys, values := seededKeys(rc.seed, n)
	kv := db.NewMemDB()
	t := trie.NewEmpty(kv)
	t0 = time.Now()
	for i := range keys {
		if err := t.Update(keys[i], values[i]); err != nil {
			return err
		}
	}
	batch := kv.NewBatch()
	root := t.CommitTo(batch)
	nodes := batch.Len()
	if err := batch.Write(); err != nil {
		return err
	}
	out.layer["trie.update_commit_us_per_key"] = us(time.Since(t0)) / float64(n)
	out.layer["trie.nodes_per_commit"] = float64(nodes)
	t0 = time.Now()
	for i := range keys {
		cold, err := trie.New(root, kv)
		if err != nil {
			return err
		}
		v, err := cold.Get(keys[i])
		if err != nil || len(v) != len(values[i]) {
			return fmt.Errorf("trie probe: key %d read back %d bytes (%v), want %d", i, len(v), err, len(values[i]))
		}
	}
	out.layer["trie.get_us"] = us(time.Since(t0)) / float64(n)

	// State: n funded accounts committed in one go.
	st, err := state.New(types.Hash{}, db.NewMemDB())
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		addr := types.BytesToAddress(keys[i][:20])
		st.SetBalance(addr, big.NewInt(int64(i)+1))
		st.SetNonce(addr, uint64(i))
	}
	t0 = time.Now()
	if _, err := st.Commit(); err != nil {
		return err
	}
	out.layer["state.commit_us_per_account"] = us(time.Since(t0)) / float64(n)

	// Stores: one n-put batch on MemDB; 100-put fsynced batches and point
	// reads on diskdb.
	mem := db.NewMemDB()
	mb := mem.NewBatch()
	t0 = time.Now()
	for i := range keys {
		mb.Put(keys[i], values[i])
	}
	if err := mb.Write(); err != nil {
		return err
	}
	out.layer["db.mem_batch_us_per_op"] = us(time.Since(t0)) / float64(n)

	disk, err := db.Open(db.Config{Backend: db.BackendDisk, DataDir: filepath.Join(rc.tmp, "probe-diskdb")})
	if err != nil {
		return err
	}
	defer closeStore(disk)
	const perBatch = 100
	var batchUs []float64
	for lo := 0; lo+perBatch <= n; lo += perBatch {
		b := disk.NewBatch()
		for i := lo; i < lo+perBatch; i++ {
			b.Put(keys[i], values[i])
		}
		t0 = time.Now()
		if err := b.Write(); err != nil {
			return err
		}
		batchUs = append(batchUs, us(time.Since(t0)))
	}
	out.layer["diskdb.batch_sync_us"] = median(batchUs)
	r := rand.New(rand.NewSource(rc.seed))
	written := n / perBatch * perBatch
	t0 = time.Now()
	for i := 0; i < written; i++ {
		if _, ok, err := disk.Get(keys[r.Intn(written)]); err != nil || !ok {
			return fmt.Errorf("diskdb probe: key missing (%v)", err)
		}
	}
	out.layer["diskdb.get_us"] = us(time.Since(t0)) / float64(max(written, 1))
	return nil
}

// ------------------------------------------------------------------ import

// probeImport splits the replica sync: span self times of the traced reps,
// the same import on the memory backend and with one decode worker, and
// the block decode and precache unit costs.
func probeImport(rc *runCtx, out *outcome, src *sourceChains, stats db.Stats, dir string) error {
	perRep := selfPerRep(rc, out)
	importMs := perRep("chain.import")
	out.layer["chain.import_ms"] = importMs
	out.layer["chain.new_ms"] = perRep("chain.new")
	out.layer["chain.reopen_ms"] = perRep("chain.open")
	out.layer["diskdb.open_close_ms"] = perRep("db.open") + perRep("db.close")
	if importMs > 0 {
		out.layer["chain.import_blocks_per_s"] = float64(src.blocks) / (importMs / 1000)
		out.layer["chain.import_txs_per_s"] = float64(src.txs) / (importMs / 1000)
	}
	nb := float64(max(src.blocks, 1))
	out.layer["db.import_writes_per_block"] = float64(stats.Writes) / nb
	out.layer["db.import_reads_per_block"] = float64(stats.Reads) / nb

	// The same import on the memory backend, default workers and one.
	memImport := func(workers int) (float64, error) {
		probe := *rc
		probe.tr = newTracer()
		runtime.GC()
		if _, err := importReplica(&probe, out, src, 0, dir, false, workers); err != nil {
			return 0, err
		}
		self, _ := selfTimes(probe.tr.spans)
		return ms(self["chain.import"]), nil
	}
	mem, err := memImport(0)
	if err != nil {
		return err
	}
	w1, err := memImport(1)
	if err != nil {
		return err
	}
	out.layer["chain.import_mem_ms"] = mem
	out.layer["chain.import_w1_ms"] = w1
	out.layer["chain.import_worker_speedup"] = w1 / mem
	out.layer["diskdb.import_cost_ms"] = importMs - mem

	// Decode and precache every frame of the primary's streams.
	var decode, precache time.Duration
	for _, stream := range src.streams {
		for len(stream) >= 4 {
			size := int(binary.BigEndian.Uint32(stream))
			frame := stream[4 : 4+size]
			stream = stream[4+size:]
			t0 := time.Now()
			b, err := chain.DecodeBlock(frame)
			decode += time.Since(t0)
			if err != nil {
				return err
			}
			t0 = time.Now()
			chain.PrecacheBlock(b)
			precache += time.Since(t0)
		}
	}
	out.layer["chain.decode_us_per_block"] = us(decode) / nb
	out.layer["chain.precache_us_per_block"] = us(precache) / nb
	return nil
}
