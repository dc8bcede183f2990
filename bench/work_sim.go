package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"forkwatch"
	"forkwatch/internal/analysis"
	"forkwatch/internal/chain"
	"forkwatch/internal/db"
	_ "forkwatch/internal/db/diskdb" // register the disk backend with db.Open
	"forkwatch/internal/export"
	"forkwatch/internal/rpc"
	"forkwatch/internal/serve"
	"forkwatch/internal/sim"
)

// ---------------------------------------------------------------- figures

// figuresOut is what one figures rep produced.
type figuresOut struct {
	figs     map[string][]byte // figure file -> body, as written
	digests  map[string]string // figure file -> SHA-256
	csvBytes int64             // bytes under the output directory
	blocks   int
	txs      int
}

// freshDir empties dir.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// digest fills in the oracle's view of a rep: the figures' digests and
// the bytes the rep left under dir.
func (f *figuresOut) digest(dir string) (err error) {
	f.digests = map[string]string{}
	for name, body := range f.figs {
		f.digests[name] = sha256Hex(body)
	}
	f.csvBytes, err = dirBytes(dir)
	return err
}

// timedObserver accumulates the time spent inside one observer, so that a
// traced rep can split Engine.Run into engine, analysis and export time.
type timedObserver struct {
	inner forkwatch.Observer
	total time.Duration
}

func (t *timedObserver) OnBlock(ev *forkwatch.BlockEvent) {
	t0 := time.Now()
	t.inner.OnBlock(ev)
	t.total += time.Since(t0)
}

func (t *timedObserver) OnDay(ev *forkwatch.DayEvent) {
	t0 := time.Now()
	t.inner.OnDay(ev)
	t.total += time.Since(t0)
}

// figuresRep is exactly `forksim -days N -out dir` into an empty dir: run
// the scenario with the collector and the recorder attached, render every
// figure, write the figure CSVs and the ledger export. Untraced it goes
// through the façade's RunRecorded; traced it takes the same steps one by
// one with a span around each.
func figuresRep(rc *runCtx, op int64, dir string) (*figuresOut, error) {
	tr := rc.tr
	root := tr.begin("figures.rep", op, -1)

	sc := forkwatch.NewScenario(rc.seed, rc.sc.figureDays)
	var rep *forkwatch.Report
	var rec *forkwatch.Recorder
	if tr == nil {
		var err error
		if rep, rec, err = forkwatch.RunRecorded(sc); err != nil {
			return nil, err
		}
	} else {
		var eng *forkwatch.Engine
		if err := tr.do("sim.new", op, root, func() (err error) {
			eng, err = forkwatch.NewEngine(sc)
			return err
		}); err != nil {
			return nil, err
		}
		col := &timedObserver{inner: analysis.NewCollector(sc.Epoch)}
		rec = &forkwatch.Recorder{}
		recT := &timedObserver{inner: rec}
		eng.AddObserver(col)
		eng.AddObserver(recT)
		runID := tr.begin("sim.run", op, root)
		err := eng.Run()
		tr.end(runID)
		if err != nil {
			return nil, err
		}
		// The observers ran inside Engine.Run in many short calls; stack
		// their totals as two child intervals so sim.run's self time is
		// the engine's own.
		start := tr.spans[runID].Start
		tr.add("analysis.collect", op, runID, start, start+col.total)
		tr.add("export.record", op, runID, start+col.total, start+col.total+recT.total)
		rep = &forkwatch.Report{Scenario: sc, Collector: col.inner.(*forkwatch.Collector)}
	}

	var figs map[string][]byte
	if err := tr.do("forkwatch.render_figures", op, root, func() (err error) {
		figs, err = forkwatch.RenderFigures(rep)
		return err
	}); err != nil {
		return nil, err
	}
	out := &figuresOut{figs: figs, blocks: len(rec.Blocks), txs: len(rec.Txs)}
	err := tr.do("export.write_csv", op, root, func() error {
		for name, body := range figs {
			if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
				return err
			}
		}
		return writeLedgerCSVs(dir, rec)
	})
	if err != nil {
		return nil, err
	}
	tr.end(root)
	return out, nil
}

func writeLedgerCSVs(dir string, rec *forkwatch.Recorder) error {
	write := func(name string, f func(io.Writer) error) error {
		file, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := f(file); err != nil {
			file.Close()
			return err
		}
		return file.Close()
	}
	if err := write("blocks.csv", func(w io.Writer) error { return export.WriteBlocks(w, rec.Blocks) }); err != nil {
		return err
	}
	if err := write("txs.csv", func(w io.Writer) error { return export.WriteTxs(w, rec.Txs) }); err != nil {
		return err
	}
	return write("days.csv", func(w io.Writer) error { return export.WriteDays(w, rec.Days) })
}

func runFigures(rc *runCtx) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}}
	dir := filepath.Join(rc.tmp, "figures")

	// The first rep is the reference of the later ones; against
	// expected.json where the seed is pinned.
	var first, got *figuresOut
	p := pipeline{
		prep: func() error { return freshDir(dir) },
		op: func(rc *runCtx, rep int) (err error) {
			got, err = figuresRep(rc, int64(rep), dir)
			return err
		},
		check: func(rep int) error {
			if err := got.digest(dir); err != nil {
				return err
			}
			if first == nil {
				first = got
				if rc.pinned() {
					if d := diffFigures(rc.expected.Figures, first.digests); d != "" {
						out.fail("seed %d figures differ from %s: %s", rc.seed, expectedPath, d)
					}
				}
			} else if d := diffFigures(first.digests, got.digests); d != "" {
				out.fail("rep %d figures differ from the first rep: %s", rep, d)
			} else if got.csvBytes != first.csvBytes {
				out.fail("rep %d wrote %d CSV bytes, the first rep %d", rep, got.csvBytes, first.csvBytes)
			}
			return nil
		},
	}
	// Set-up is an untimed warm-up rep: it grows the heap and fills the
	// pools the timed reps reuse.
	if err := timeSetups(rc, out, func() error { return p.warm(rc) }); err != nil {
		return nil, err
	}
	if err := measure(rc, out, p); err != nil {
		return nil, err
	}
	out.diskBytes = first.csvBytes
	out.notes = append(out.notes, fmt.Sprintf("%d days: %d blocks, %d txs, %d CSV bytes per rep", rc.sc.figureDays, first.blocks, first.txs, first.csvBytes))
	if !rc.traced() {
		return out, nil
	}
	perRep := selfPerRep(rc, out)
	out.layer["sim.new_ms"] = perRep("sim.new")
	out.layer["export.record_ms"] = perRep("export.record")
	out.layer["export.write_csv_ms"] = perRep("export.write_csv")
	out.layer["forkwatch.render_figures_ms"] = perRep("forkwatch.render_figures")
	out.layer["export.csv_bytes"] = float64(first.csvBytes)
	return out, probeSim(rc, out)
}

// selfPerRep returns a lookup of a span name's self time in milliseconds
// per timed rep of the traced run.
func selfPerRep(rc *runCtx, out *outcome) func(span string) float64 {
	self, _ := selfTimes(rc.tr.spans)
	return func(span string) float64 { return ms(self[span]) / float64(len(out.units)) }
}

// goRuntimeLayer reports the Go runtime's work over the measured section.
func goRuntimeLayer(out *outcome, m0, m1 *runtime.MemStats) {
	ops := float64(out.attempted)
	out.layer["go.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / ops
	out.layer["go.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / ops
	out.layer["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
}

// ------------------------------------------------------------ archive build

// buildArchive is forkserve's boot on a directory that does not exist yet:
// run dense-6h at full fidelity through the disk backend, mount the chains,
// and shut down again. The archive's disk size is the caller's to read.
func buildArchive(rc *runCtx, op int64, dir string) (archiveID, db.Stats, error) {
	tr := rc.tr
	sc := denseScenario(rc.seed, rc.sc, rc.sc.denseShort, diskStorage(dir))
	root := tr.begin("archive.build", op, -1)
	var res *serve.Result
	var run func() error
	if err := tr.do("serve.mount", op, root, func() (err error) {
		res, run, err = serve.BuildLive(sc, rpc.ServerConfig{})
		return err
	}); err != nil {
		return archiveID{}, db.Stats{}, err
	}
	if err := tr.do("sim.run_full", op, root, func() error { return run() }); err != nil {
		res.Close()
		return archiveID{}, db.Stats{}, err
	}
	id := identify(res)
	stats := res.Engine.StorageStats()
	tr.do("serve.close", op, root, func() error { res.Close(); return nil })
	tr.end(root)
	return id, stats, nil
}

func runArchiveBuild(rc *runCtx) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}}
	dir := filepath.Join(rc.tmp, "archive")

	var first, got archiveID
	var stats db.Stats
	p := pipeline{
		prep: func() error { return os.RemoveAll(dir) },
		op: func(rc *runCtx, rep int) (err error) {
			got, stats, err = buildArchive(rc, int64(rep), dir)
			return err
		},
		check: func(rep int) (err error) {
			if got.DiskBytes, err = dirBytes(dir); err != nil {
				return err
			}
			if first.Chains == nil {
				first = got
				if rc.pinned() {
					if want := rc.expected.Archives["dense-6h"]; !want.equal(first) {
						out.fail("seed %d dense-6h archive is %+v, %s has %+v", rc.seed, first, expectedPath, want)
					}
				}
			} else if !got.equal(first) {
				out.fail("rep %d built %+v, the first build %+v", rep, got, first)
			}
			return nil
		},
	}
	if err := timeSetups(rc, out, func() error { return p.warm(rc) }); err != nil {
		return nil, err
	}
	if err := measure(rc, out, p); err != nil {
		return nil, err
	}
	out.diskBytes = first.DiskBytes
	out.notes = append(out.notes, fmt.Sprintf("dense-6h: %s, %d bytes on disk", describeHeads(first), first.DiskBytes))
	if !rc.traced() {
		return out, nil
	}
	perRep := selfPerRep(rc, out)
	out.layer["sim.run_full_ms"] = perRep("sim.run_full")
	out.layer["serve.mount_ms"] = perRep("serve.mount")
	out.layer["serve.close_ms"] = perRep("serve.close")
	return out, probeWritePath(rc, out, first, stats, dir)
}

func describeHeads(id archiveID) string {
	s := ""
	for _, name := range sortedKeys(id.Chains) {
		if s != "" {
			s += ", "
		}
		s += fmt.Sprintf("%s head %d", name, id.Chains[name].Number)
	}
	return s
}

// ----------------------------------------------------------- replica import

// sourceChains is the primary a replica syncs from: both partitions mined
// in memory and serialised with Blockchain.WriteChain.
type sourceChains struct {
	sc      *forkwatch.Scenario
	names   []string
	cfgs    []*chain.Config
	genesis *chain.Genesis
	streams [][]byte
	heads   []chainHead
	blocks  int
	txs     int
}

func mineSource(rc *runCtx) (*sourceChains, error) {
	sc := denseScenario(rc.seed, rc.sc, rc.sc.denseShort, forkwatch.StorageConfig{})
	eng, err := forkwatch.NewEngine(sc)
	if err != nil {
		return nil, err
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	src := &sourceChains{
		sc:      sc,
		names:   eng.PartitionNames(),
		cfgs:    sim.PartitionChainConfigs(sc),
		genesis: sim.NewWorkload(sc).Genesis(),
	}
	for i, name := range src.names {
		led, ok := eng.LedgerAt(i).(*sim.FullLedger)
		if !ok {
			return nil, fmt.Errorf("%s ledger is %T, want *sim.FullLedger", name, eng.LedgerAt(i))
		}
		var buf bytes.Buffer
		if err := led.BC.WriteChain(&buf); err != nil {
			return nil, err
		}
		src.streams = append(src.streams, buf.Bytes())
		head := headOf(led.BC)
		src.heads = append(src.heads, head)
		src.blocks += int(head.Number)
		for _, b := range led.BC.CanonicalBlocks(1, head.Number) {
			src.txs += len(b.Txs)
		}
	}
	return src, nil
}

func headOf(bc *chain.Blockchain) chainHead {
	head := bc.Head()
	return chainHead{Number: head.Number(), Hash: head.Hash().Hex(), StateRoot: head.Header.StateRoot.Hex()}
}

func closeStore(kv db.KV) error {
	if c, ok := kv.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// importReplica is one replica sync and restart: for each partition, a
// fresh store, a chain at the shared genesis, ImportChain of the primary's
// stream through full validation, and close; then chain.Open on the same
// directory, which must not exist yet. disk selects the backend (on memory
// there is nothing to reopen); workers 0 is ImportChain's default. It
// returns the stores' counters summed over the partitions.
func importReplica(rc *runCtx, out *outcome, src *sourceChains, op int64, dir string, disk bool, workers int) (db.Stats, error) {
	tr := rc.tr
	var total db.Stats
	root := tr.begin("replica.sync", op, -1)
	defer tr.end(root)
	open := func(name string) (db.KV, error) {
		if !disk {
			return db.Open(db.Config{})
		}
		return db.Open(db.Config{Backend: db.BackendDisk, DataDir: sim.ChainDataDir(dir, name)})
	}
	for i, name := range src.names {
		var kv db.KV
		if err := tr.do("db.open", op, root, func() (err error) { kv, err = open(name); return err }); err != nil {
			return total, err
		}
		var bc *chain.Blockchain
		if err := tr.do("chain.new", op, root, func() (err error) {
			bc, err = chain.NewBlockchainWithDB(src.cfgs[i], src.genesis, kv)
			return err
		}); err != nil {
			return total, err
		}
		err := tr.do("chain.import", op, root, func() error {
			r := bytes.NewReader(src.streams[i])
			var n int
			var err error
			if workers > 0 {
				n, err = bc.ImportChainWorkers(r, workers)
			} else {
				n, err = bc.ImportChain(r)
			}
			if err == nil && uint64(n) != src.heads[i].Number {
				err = fmt.Errorf("%s imported %d blocks, the source has %d", name, n, src.heads[i].Number)
			}
			return err
		})
		if err != nil {
			return total, err
		}
		imported := headOf(bc)
		if imported != src.heads[i] {
			out.fail("%s imported head %+v, source head %+v", name, imported, src.heads[i])
		}
		total = total.Add(bc.StorageStats())
		if err := tr.do("db.close", op, root, func() error { return closeStore(kv) }); err != nil {
			return total, err
		}
	}
	if !disk {
		return total, nil
	}
	for i, name := range src.names {
		var kv db.KV
		if err := tr.do("db.open", op, root, func() (err error) { kv, err = open(name); return err }); err != nil {
			return total, err
		}
		var bc *chain.Blockchain
		if err := tr.do("chain.open", op, root, func() (err error) {
			bc, err = chain.Open(src.cfgs[i], kv)
			return err
		}); err != nil {
			return total, err
		}
		if reopened := headOf(bc); reopened != src.heads[i] {
			out.fail("%s reopened head %+v, imported head %+v", name, reopened, src.heads[i])
		}
		if err := tr.do("db.close", op, root, func() error { return closeStore(kv) }); err != nil {
			return total, err
		}
	}
	return total, nil
}

func runReplicaImport(rc *runCtx) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}}
	dir := filepath.Join(rc.tmp, "replica")

	// Set-up mines and serialises the primary; one untimed sync then warms
	// the decode pools and the page cache.
	var src *sourceChains
	err := timeSetups(rc, out, func() (err error) {
		src, err = mineSource(rc)
		return err
	})
	if err != nil {
		return nil, err
	}
	var stats db.Stats
	var diskBytes int64
	p := pipeline{
		prep: func() error { return os.RemoveAll(dir) },
		op: func(rc *runCtx, rep int) (err error) {
			stats, err = importReplica(rc, out, src, int64(rep), dir, true, 0)
			return err
		},
		check: func(rep int) error {
			n, err := dirBytes(dir)
			if err != nil {
				return err
			}
			if diskBytes != 0 && n != diskBytes {
				out.fail("rep %d left %d bytes on disk, an earlier rep %d", rep, n, diskBytes)
			}
			diskBytes = n
			return nil
		},
	}
	if err := p.warm(rc); err != nil {
		return nil, err
	}
	if err := measure(rc, out, p); err != nil {
		return nil, err
	}
	out.diskBytes = diskBytes
	out.notes = append(out.notes, fmt.Sprintf("dense-6h: %d blocks, %d txs imported per rep, %d bytes on disk", src.blocks, src.txs, diskBytes))
	if !rc.traced() {
		return out, nil
	}
	return out, probeImport(rc, out, src, stats, dir)
}
