// Command forksim runs a partitioned fork scenario — the calibrated
// historical two-way split by default, any N-way split via -partitions —
// and regenerates every figure of the paper, printing a summary keyed to
// the paper's observations O1–O6 and optionally writing the figure series
// and the raw ledger export as CSV. -matrix instead sweeps the scenario
// matrix (hashrate/economics grid crossed with pool behaviour models) and
// prints a summary table.
//
// Usage:
//
//	forksim -seed 1 -days 270 -out results/
//	forksim -days 30 -mode full        # short run on the real chain substrate
//	forksim -days 60 -partitions 'MAJ:share=0,weight=0.7;MIN:share=0.3,weight=0.3,behaviour=mixed'
//	forksim -days 45 -matrix -out results/
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"forkwatch"
	"forkwatch/internal/analysis"
	"forkwatch/internal/export"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("forksim: ")

	var (
		seed    = flag.Int64("seed", 1, "simulation seed (equal seeds reproduce runs exactly)")
		days    = flag.Int("days", 270, "days to simulate from the fork moment")
		mode    = flag.String("mode", "fast", `ledger fidelity: "fast" or "full"`)
		storage = flag.String("storage", "mem", `full-mode storage backend: "mem" or "disk"`)
		datadir = flag.String("datadir", "", `directory for -storage disk segment files (each chain gets a subdirectory); use a fresh directory per run`)
		faults  = flag.String("storage-faults", "", `full-mode storage fault injection, e.g. "seed=42,readerr=0.2,writeerr=0.2,torn=0.01" (empty = none)`)
		crash   = flag.String("crash", "", `full-mode storage crash schedule: comma-separated chain:day:block:op, e.g. "ETH:1:3:40,ETC:2:0:5"`)
		outDir  = flag.String("out", "", "directory for CSV output (figures + ledger export); empty = summary only")
		par     = flag.Int("parallelism", 0, "1 = serial; >= 2 (all alike) = a goroutine per partition plus one delivering observers; 0 = GOMAXPROCS; output is byte-identical either way")
		profDir = flag.String("profile", "", "directory for cpu.pprof/heap.pprof capture of the run (empty = no profiling)")
		parts   = flag.String("partitions", "", `N-way partition spec "NAME:key=v,...;NAME:key=v,..." (empty = historical two-way split); see DESIGN.md §12`)
		matrix  = flag.Bool("matrix", false, "sweep the scenario matrix (hashrate/economics grid x pool behaviour models) and print a summary table instead of one run")
	)
	flag.Parse()

	if *matrix {
		runMatrix(*seed, *days, *par, *outDir)
		return
	}

	sc := forkwatch.NewScenario(*seed, *days)
	if *parts != "" {
		specs, err := forkwatch.ParsePartitionSpecs(*parts)
		if err != nil {
			log.Fatal(err)
		}
		sc.Partitions = specs
	}
	switch *mode {
	case "fast":
		sc.Mode = forkwatch.ModeFast
	case "full":
		sc.Mode = forkwatch.ModeFull
		if *days > 3 {
			log.Printf("note: full mode executes every transaction on a real EVM; %d days will take a while", *days)
		}
	default:
		log.Fatalf("unknown -mode %q", *mode)
	}
	sc.Storage = forkwatch.StorageConfig{Backend: *storage, DataDir: *datadir}
	if *storage == forkwatch.StorageDisk && sc.Mode != forkwatch.ModeFull {
		log.Fatal("-storage disk requires -mode full (fast mode keeps no chain storage)")
	}
	if *faults != "" {
		f, err := forkwatch.ParseStorageFaults(*faults)
		if err != nil {
			log.Fatal(err)
		}
		if sc.Mode != forkwatch.ModeFull {
			log.Fatal("-storage-faults requires -mode full (fast mode keeps no chain storage)")
		}
		sc.StorageFaults = f
		log.Printf("storage faults: %v", f)
	}
	if *crash != "" {
		cs, err := forkwatch.ParseCrashSpecs(*crash)
		if err != nil {
			log.Fatal(err)
		}
		if sc.Mode != forkwatch.ModeFull {
			log.Fatal("-crash requires -mode full (fast mode keeps no chain storage)")
		}
		sc.Crashes = cs
	}

	sc.Parallelism = *par

	eng, err := forkwatch.NewEngine(sc)
	if err != nil {
		log.Fatal(err)
	}
	col := analysis.NewCollector(sc.Epoch)
	eng.AddObserver(col)
	// The ledger tables are written as the run delivers its blocks.
	var tables *export.Tables
	if *outDir != "" {
		if tables, err = export.NewTables(*outDir); err != nil {
			log.Fatal(err)
		}
		eng.AddObserver(tables)
	}

	// The CPU profile spans the whole command — simulation with the CSV
	// export, then figure rendering — so it stops when main returns; the
	// heap profile is the retained state right after the run.
	if *profDir != "" {
		if err := os.MkdirAll(*profDir, 0o755); err != nil {
			log.Fatal(err)
		}
		cpuF, err := os.Create(filepath.Join(*profDir, "cpu.pprof"))
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote cpu.pprof and heap.pprof to %s", *profDir)
		}()
	}
	err = eng.Run()
	if tables != nil {
		if err != nil {
			tables.Abort()
		} else {
			err = tables.Close()
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	if *profDir != "" {
		heapF, err := os.Create(filepath.Join(*profDir, "heap.pprof"))
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // settle the heap so the profile reflects retained allocations
		if err := pprof.WriteHeapProfile(heapF); err != nil {
			log.Fatal(err)
		}
		heapF.Close()
	}
	rep := &forkwatch.Report{Scenario: sc, Collector: col}
	fmt.Print(rep.Summary())
	if sc.Mode == forkwatch.ModeFull {
		defer func() {
			s := eng.StorageStats()
			log.Printf("storage [%s]: %d entries, %d reads (%.1f%% hit), %d writes, %d deletes",
				*storage, s.Entries, s.Reads, 100*s.HitRate(), s.Writes, s.Deletes)
			if *faults != "" || *crash != "" {
				log.Printf("storage chaos: %d fault events logged, %d/%d scheduled crashes fired",
					eng.StorageFaultEvents(), eng.CrashesFired(), len(sc.Crashes))
			}
			if err := eng.Close(); err != nil {
				log.Printf("closing storage: %v", err)
			}
		}()
	}

	if *outDir == "" {
		return
	}
	figs, err := forkwatch.RenderFigures(rep)
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, 0, len(figs))
	for name := range figs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(*outDir, name), figs[name], 0o666); err != nil {
			log.Fatal(err)
		}
	}
	_, corr := rep.Figure3()
	log.Printf("wrote figures and ledger export to %s (fig3 correlation %.4f)", *outDir, corr)
}

// runMatrix sweeps the aligned/conflict/extreme hashrate-economics grid
// crossed with the three pool behaviour models, printing one summary row
// per cell and, with -out, writing the same table as matrix.csv.
func runMatrix(seed int64, days, par int, outDir string) {
	cells := forkwatch.MatrixCells(seed, days)
	header := "grid,behaviour,min_share_fork,min_share_end,diff_ratio_end,min_recovery_hour,payoff_corr,echoes_into_min"
	rows := make([]string, 0, len(cells))
	for _, cell := range cells {
		sc := cell.Scenario
		sc.Parallelism = par
		eng, err := forkwatch.NewEngine(sc)
		if err != nil {
			log.Fatalf("matrix cell %s/%s: %v", cell.Grid, cell.Behaviour, err)
		}
		col := analysis.NewCollector(sc.Epoch)
		eng.AddObserver(col)
		if err := eng.Run(); err != nil {
			log.Fatalf("matrix cell %s/%s: %v", cell.Grid, cell.Behaviour, err)
		}
		rep := &forkwatch.Report{Scenario: sc, Collector: col}
		names := rep.Chains()
		maj, min := names[0], names[1]
		last := col.Days() - 1
		majDiff := col.DailyDifficulty(maj)
		minDiff := col.DailyDifficulty(min)
		ratio := 0.0
		if last >= 0 && minDiff[last] > 0 {
			ratio = majDiff[last] / minDiff[last]
		}
		shareEnd := 0.0
		if last >= 0 {
			majHR := col.DailyHashrate(maj)[last]
			minHR := col.DailyHashrate(min)[last]
			if total := majHR + minHR; total > 0 {
				shareEnd = minHR / total
			}
		}
		_, corr := rep.Figure3()
		row := fmt.Sprintf("%s,%s,%g,%.4f,%.2f,%d,%.4f,%d",
			cell.Grid, cell.Behaviour,
			sc.Partitions[1].ShareAtFork, shareEnd, ratio,
			col.RecoveryHour(min, 14, 0.9, 6), corr, col.TotalEchoes(min))
		rows = append(rows, row)
	}
	table := header + "\n" + strings.Join(rows, "\n") + "\n"
	fmt.Print(table)
	if outDir == "" {
		return
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	// os.WriteFile reports a failed Close, so the table counts as written
	// only once it is on disk.
	path := filepath.Join(outDir, "matrix.csv")
	if err := os.WriteFile(path, []byte(table), 0o666); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d matrix cells to %s", len(rows), path)
}
