package sim

import (
	"math"
	"strings"
	"testing"
	"time"

	"forkwatch/internal/db/diskdb/faultfile"
)

// threeSpecs returns a valid three-way partition list for mutation-based
// Validate cases.
func threeSpecs() []PartitionSpec {
	return []PartitionSpec{
		{Name: "ONE", ChainID: 1, DAOSupport: true, Price0: 10, RallyShare: 1,
			PrimaryFraction: 0.5, TxPerDay: 200, EIP155Day: -1, Pools: 20, PoolAlpha: 1, PoolCap: 0.24},
		{Name: "TWO", ChainID: 2, ShareAtFork: 0.2, RejoinShare: 0.05, RejoinTauDays: 10,
			Behaviour: "mixed", IdeologicalShare: 0.5, Price0: 5, RallyShare: 1,
			PrimaryFraction: 0.3, TxPerDay: 80, EIP155Day: -1, Pools: 15, PoolChurn: 0.1, PoolAlpha: 1.2, PoolCap: 0.24},
		{Name: "TRI", ChainID: 3, ShareAtFork: 0.1, CollapseDay: 20, CollapseTauDays: 4,
			Behaviour: "ideological", Price0: 2, RallyShare: 1,
			PrimaryFraction: 0.1, TxPerDay: 40, EIP155Day: -1, Pools: 10, PoolAlpha: 1.3, PoolCap: 0.3},
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(sc *Scenario)
		wantErr string // empty = must pass
	}{
		{name: "legacy two-way default passes", mutate: func(sc *Scenario) {}},
		{name: "three-way passes", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
		}},
		{name: "negative days", mutate: func(sc *Scenario) {
			sc.Days = -1
		}, wantErr: "Days"},
		{name: "zero day length", mutate: func(sc *Scenario) {
			sc.DayLength = 0
		}, wantErr: "DayLength"},
		{name: "bad name", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[1].Name = "two"
		}, wantErr: "name must match"},
		{name: "duplicate name", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[2].Name = "TWO"
		}, wantErr: "duplicate name"},
		{name: "zero chain id", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[0].ChainID = 0
		}, wantErr: "ChainID must be nonzero"},
		{name: "duplicate chain id", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[2].ChainID = 2
		}, wantErr: "already used"},
		{name: "share outside range", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[1].ShareAtFork = 1.5
		}, wantErr: "ShareAtFork"},
		{name: "non-anchor shares exceed one", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[1].ShareAtFork = 0.7
			sc.Partitions[2].ShareAtFork = 0.6
		}, wantErr: "sum"},
		{name: "anchor share not residual", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[0].ShareAtFork = 0.5 // residual is 0.7
		}, wantErr: "anchor"},
		{name: "anchor share exactly residual passes", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[0].ShareAtFork = 0.7
		}},
		{name: "negative weight", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[0].EconomicWeight = -1
		}, wantErr: "EconomicWeight"},
		{name: "negative rejoin", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[1].RejoinShare = -0.1
		}, wantErr: "rejoin"},
		{name: "negative collapse tau", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[2].CollapseTauDays = -1
		}, wantErr: "collapse"},
		{name: "unknown behaviour", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[1].Behaviour = "vengeful"
		}, wantErr: "behaviour"},
		{name: "ideological share outside range", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[1].IdeologicalShare = 2
		}, wantErr: "IdeologicalShare"},
		{name: "primary fractions exceed one", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[0].PrimaryFraction = 0.9
			sc.Partitions[1].PrimaryFraction = 0.9
		}, wantErr: "PrimaryFraction sum"},
		{name: "negative tx rate", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[2].TxPerDay = -1
		}, wantErr: "TxPerDay"},
		{name: "no pools", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[0].Pools = 0
		}, wantErr: "Pools"},
		{name: "crash names unknown chain", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Crashes = []CrashSpec{{Chain: "NOPE", Day: 0, Block: 1, Op: 1}}
		}, wantErr: "unknown chain"},
		{name: "crash names known chain passes", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Crashes = []CrashSpec{{Chain: "TRI", Day: 0, Block: 1, Op: 1}}
		}},
		{name: "negative crash day", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Crashes = []CrashSpec{{Chain: "TRI", Day: -1, Block: 1, Op: 1}}
		}, wantErr: "crash spec"},
		{name: "negative parallelism", mutate: func(sc *Scenario) {
			sc.Parallelism = -3
		}, wantErr: "Parallelism"},
		// NaN passed every x < 0 || x > 1 range check, and most knobs had
		// none: each of these hung or silently zeroed a run.
		{name: "NaN tx rate", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[1].TxPerDay = math.NaN()
		}, wantErr: "TxPerDay"},
		{name: "runaway tx rate", mutate: func(sc *Scenario) {
			sc.ETCTxPerDay = 1e300
		}, wantErr: "TxPerDay"},
		{name: "NaN share", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[1].ShareAtFork = math.NaN()
		}, wantErr: "ShareAtFork"},
		{name: "NaN weight", mutate: func(sc *Scenario) {
			sc.Partitions = threeSpecs()
			sc.Partitions[2].EconomicWeight = math.NaN()
		}, wantErr: "EconomicWeight"},
		{name: "infinite price", mutate: func(sc *Scenario) {
			sc.Market.ETC0 = math.Inf(1)
		}, wantErr: "Price0"},
		{name: "NaN storage fault rate", mutate: func(sc *Scenario) {
			sc.StorageFaults.ReadErrRate = math.NaN()
		}, wantErr: "ReadErrRate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewScenario(1, 10)
			tc.mutate(sc)
			err := sc.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

func TestParsePartitionSpecs(t *testing.T) {
	specs, err := ParsePartitionSpecs(
		"MAIN:weight=0.7,txperday=400,dao=true; CLASSIC:share=0.3,weight=0.3,behaviour=mixed,ideological=0.4,rejoin=0.05,rejointau=10,chainid=61,pools=25,churn=0.15,alpha=1.3,lag=30")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("parsed %d specs", len(specs))
	}
	m, c := specs[0], specs[1]
	if m.Name != "MAIN" || m.EconomicWeight != 0.7 || m.TxPerDay != 400 || !m.DAOSupport || m.ChainID != 1 {
		t.Errorf("MAIN = %+v", m)
	}
	if c.Name != "CLASSIC" || c.ShareAtFork != 0.3 || c.Behaviour != "mixed" ||
		c.IdeologicalShare != 0.4 || c.RejoinShare != 0.05 || c.RejoinTauDays != 10 ||
		c.ChainID != 61 || c.Pools != 25 || c.PoolChurn != 0.15 || c.PoolAlpha != 1.3 || c.PoolLagDays != 30 {
		t.Errorf("CLASSIC = %+v", c)
	}
	// Defaults fill in what the spec string leaves unset.
	if c.Price0 != 1 || c.EIP155Day != -1 || c.PoolCap != 0.24 {
		t.Errorf("CLASSIC defaults = %+v", c)
	}
	// Parsed specs must validate as a scenario.
	sc := NewScenario(1, 5)
	sc.Partitions = specs
	if err := sc.Validate(); err != nil {
		t.Errorf("parsed specs do not validate: %v", err)
	}

	// The behaviour alias and the index-dependent defaults.
	specs, err = ParsePartitionSpecs("a;b:behavior=mixed")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := specs[0], specs[1]; a.Name != "A" || a.ChainID != 1 || !a.DAOSupport ||
		b.Name != "B" || b.ChainID != 2 || b.DAOSupport || b.Behaviour != "mixed" {
		t.Errorf("defaults = %+v", specs)
	}

	for bad, key := range map[string]string{
		"MAIN:weight":            "weight", // no value
		"MAIN:bogus=1":           "bogus",
		"MAIN:share=notanumber":  "share",
		"ETH;ETC:txperday=NaN":   "txperday",
		"ETH;ETC:txperday=1e300": "txperday",
		"ETH;ETC:share=NaN":      "share",
		"ETH;ETC:weight=NaN":     "weight",
		"ETH;ETC:price0=Inf":     "price0",
		"ETH:pools=1000000000":   "pools",
	} {
		if _, err := ParsePartitionSpecs(bad); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("ParsePartitionSpecs(%q) = %v, want an error naming %q", bad, err, key)
		}
	}
	if specs, err := ParsePartitionSpecs("  "); err != nil || specs != nil {
		t.Errorf("blank spec = %v, %v", specs, err)
	}
}

// TestStructHashratesMatchesLegacy pins the N-way structural schedule to
// the legacy two-way closed form (fork exit, rejoin, exogenous growth,
// the Zcash event) for the synthesised historical pair: the
// byte-identity of old seeds depends on it.
func TestStructHashratesMatchesLegacy(t *testing.T) {
	sc := NewScenario(42, 300)
	specs := sc.PartitionSpecs()
	for day := 0; day < 300; day++ {
		d := float64(day)
		etcShare := sc.ETCShareAtFork + sc.RejoinShare*(1-math.Exp(-d/sc.RejoinTauDays))
		total := sc.TotalHashrate * math.Pow(1+sc.ETHGrowthPerDay, d)
		if day >= sc.ZcashLaunchDay {
			total *= 1 - sc.ZcashPull*math.Exp(-(d-float64(sc.ZcashLaunchDay))/sc.ZcashReturnTauDays)
		}
		eth, etc := total*(1-etcShare), total*etcShare
		hr := sc.StructHashrates(day, specs)
		if len(hr) != 2 {
			t.Fatalf("day %d: %d partitions", day, len(hr))
		}
		if hr[0] != eth || hr[1] != etc {
			t.Fatalf("day %d: StructHashrates = (%g, %g), legacy = (%g, %g)", day, hr[0], hr[1], eth, etc)
		}
	}
}

// TestStructHashratesCollapse checks the collapse curve: the partition's
// structural share decays to zero after CollapseDay and the anchor
// absorbs it.
func TestStructHashratesCollapse(t *testing.T) {
	sc := NewScenario(1, 60)
	sc.ZcashLaunchDay = 0 // isolate the collapse
	sc.ETHGrowthPerDay = 0
	sc.Partitions = threeSpecs()
	specs := sc.PartitionSpecs()

	before := sc.StructHashrates(19, specs)
	if before[2] <= 0 {
		t.Fatalf("TRI has no hashrate before its collapse: %v", before)
	}
	after := sc.StructHashrates(50, specs)
	if frac := after[2] / sc.TotalHashrate; frac > 1e-3 {
		t.Errorf("TRI still holds %.4f of hashrate 30 days after collapse", frac)
	}
	if after[0] <= before[0] {
		t.Errorf("anchor did not absorb the collapsed share: %g -> %g", before[0], after[0])
	}
	sum := 0.0
	for _, h := range after {
		sum += h
	}
	if math.Abs(sum-sc.TotalHashrate) > 1e-3*sc.TotalHashrate {
		t.Errorf("total hashrate not conserved: %g vs %g", sum, sc.TotalHashrate)
	}
}

func TestRegistry(t *testing.T) {
	reg, err := NewRegistry(threeSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 3 {
		t.Fatalf("Len = %d", reg.Len())
	}
	if got := reg.Names(); got[0] != "ONE" || got[1] != "TWO" || got[2] != "TRI" {
		t.Fatalf("Names = %v", got)
	}
	if i, ok := reg.Index("TRI"); !ok || i != 2 {
		t.Fatalf("Index(TRI) = %d, %v", i, ok)
	}
	if _, ok := reg.Index("NOPE"); ok {
		t.Fatal("Index(NOPE) resolved")
	}
	if _, err := NewRegistry(nil); err == nil {
		t.Fatal("empty registry accepted")
	}
	dup := threeSpecs()
	dup[1].Name = "ONE"
	if _, err := NewRegistry(dup); err == nil {
		t.Fatal("duplicate registry accepted")
	}
}

// TestMatrixCells checks the scenario matrix: nine cells (three grids x
// three behaviour models), each a valid two-partition scenario wired to
// the cell's behaviour.
func TestMatrixCells(t *testing.T) {
	cells := MatrixCells(3, 12)
	if len(cells) != 9 {
		t.Fatalf("cells = %d, want 9", len(cells))
	}
	seen := map[string]bool{}
	for _, cell := range cells {
		key := cell.Grid + "/" + cell.Behaviour
		if seen[key] {
			t.Errorf("duplicate cell %s", key)
		}
		seen[key] = true
		if err := cell.Scenario.Validate(); err != nil {
			t.Errorf("cell %s invalid: %v", key, err)
		}
		if got := cell.Scenario.Partitions[1].Behaviour; got != cell.Behaviour {
			t.Errorf("cell %s minority behaviour = %q", key, got)
		}
		if cell.Scenario.Days != 12 || cell.Scenario.Seed != 3 {
			t.Errorf("cell %s did not inherit seed/days", key)
		}
	}
}

func TestParseCrashSpecs(t *testing.T) {
	got, err := ParseCrashSpecs(" eth:1:3:40, ETC:2:0:5 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []CrashSpec{{Chain: "ETH", Day: 1, Block: 3, Op: 40}, {Chain: "ETC", Day: 2, Block: 0, Op: 5}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ParseCrashSpecs = %+v, want %+v", got, want)
	}
	for _, bad := range []string{"ETH:1:3", "ETH:1:3:40:5", "e-th:1:3:40", "ETH:-1:3:40", "ETH:1:-3:40", "ETH:1:3:-40", "ETH:x:3:40"} {
		if _, err := ParseCrashSpecs(bad); err == nil {
			t.Errorf("ParseCrashSpecs(%q) accepted", bad)
		}
	}
	if got, err := ParseCrashSpecs(" , "); err != nil || got != nil {
		t.Errorf("blank schedule = %v, %v", got, err)
	}
}

// FuzzScenarioSpecs: any partition list, storage-fault plan and crash
// schedule that parse and validate run a shrunk fast-mode scenario to
// completion, without a panic and within a deadline. The seeds are the
// inputs that hung (a NaN or runaway tx rate), zeroed (a NaN share) or
// printed NaN (an infinite price) before their knobs had bounds.
func FuzzScenarioSpecs(f *testing.F) {
	f.Add("ETH;ETC:txperday=NaN", "", "")
	f.Add("ETH;ETC:txperday=1e300", "", "")
	f.Add("ETH;ETC:share=NaN", "", "")
	f.Add("ETH;ETC:weight=NaN", "", "")
	f.Add("ETH;ETC:price0=Inf", "", "")
	f.Add("", "readerr=NaN", "ETH:0:1:2")
	f.Add("ONE:share=0;TRI:share=0.1,collapseday=1,behaviour=ideological;TWO:share=0.2,weight=0.6,behaviour=mixed,ideological=0.5",
		"seed=42,readerr=0.2,writeerr=0.2,torn=0.01", "TWO:1:0:1")
	f.Add("A:txperday=1e5,pools=10000;B:share=0.5,zipf=10,alpha=10,cap=1e-9,churn=1", "", "")
	f.Fuzz(func(t *testing.T, parts, faults, crashes string) {
		sc := NewScenario(1, 2)
		sc.DayLength = 3600
		sc.Users = 20
		var err error
		if sc.Partitions, err = ParsePartitionSpecs(parts); err != nil {
			return
		}
		if sc.StorageFaults, err = faultfile.ParseSpec(faults); err != nil {
			return
		}
		if sc.Crashes, err = ParseCrashSpecs(crashes); err != nil {
			return
		}
		if sc.Validate() != nil {
			return
		}
		eng, err := New(sc)
		if err != nil {
			t.Fatalf("New on a valid scenario: %v", err)
		}
		done := make(chan error, 1)
		go func() { done <- eng.Run() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Run(%q, %q, %q): %v", parts, faults, crashes, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("Run(%q, %q, %q) still running after 30 s", parts, faults, crashes)
		}
	})
}
