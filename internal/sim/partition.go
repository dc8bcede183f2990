package sim

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"

	"forkwatch/internal/chain"
	"forkwatch/internal/market"
	"forkwatch/internal/pool"
	"forkwatch/internal/spec"
	"forkwatch/internal/types"
)

// PartitionSpec describes one named partition of an N-way fork: its chain
// rules, its hashrate share at the fork moment, the economics that move
// miners toward or away from it, and its workload and mining-pool
// population. Scenario.Partitions holds one spec per partition; when the
// list is empty the scenario resolves to the paper's historical two-way
// split synthesised from the legacy scalar knobs (see LegacyPartitions).
//
// The partition at index 0 is the anchor: its hashrate share is always
// the residual 1 - sum(others), which is how the two-way engine always
// treated the majority chain. Its ShareAtFork must therefore be zero
// (meaning "the rest") or spell the residual out exactly.
type PartitionSpec struct {
	// Name labels the partition everywhere: analysis buckets, export
	// rows, RPC routes (/<lowercase name>) and PRNG stream derivation —
	// which is why two-way seeds stay byte-identical across the N-way
	// engine: the streams key on the name, not the slot. Uppercase
	// alphanumeric, starting with a letter.
	Name string
	// ChainID is the partition's EIP-155 replay domain; must be unique.
	ChainID uint64
	// DAOSupport selects the pro-fork rules (the irregular state change
	// applies at the fork block).
	DAOSupport bool

	// ShareAtFork is the fraction of total hashrate mining this partition
	// the moment the fork activates. Ignored for the anchor (index 0),
	// which takes the residual.
	ShareAtFork float64
	// EconomicWeight scales the partition's USD price in the arbitrage
	// target: miners chase weight*price, so a chain the market values
	// can hold hashrate beyond its raw price. Zero means 1.
	EconomicWeight float64
	// RejoinShare is additional total-hashrate share returning to the
	// partition after the fork, with exponential time constant
	// RejoinTauDays (the paper's two-week ETC rejoin).
	RejoinShare   float64
	RejoinTauDays float64
	// CollapseDay, when positive, starts an exponential decay of the
	// partition's structural share toward zero with time constant
	// CollapseTauDays (zero tau collapses instantly): the partition dies
	// and its miners migrate to the survivors.
	CollapseDay     int
	CollapseTauDays float64
	// Behaviour is the pool behaviour model: "profit-only" (default),
	// "ideological" or "mixed" — how much of the partition's hashrate
	// chases USD-per-hash versus staying put (pool.Behaviour).
	Behaviour string
	// IdeologicalShare is the sticky fraction under the mixed behaviour
	// (default one half).
	IdeologicalShare float64

	// Price0, DriftEdge and RallyShare parameterise the partition's leg
	// of the coupled price walk (market.ChainParams).
	Price0     float64
	DriftEdge  float64
	RallyShare float64

	// PrimaryFraction is the share of users who participate only in this
	// partition; users not claimed by any partition transact on all of
	// them.
	PrimaryFraction float64
	// TxPerDay is the partition's base daily transaction rate.
	TxPerDay float64
	// Speculation opts the partition into the scenario's speculative
	// traffic ramp (SpeculationStartDay/SpeculationFactor).
	Speculation bool
	// EIP155Day is the day replay protection activates; negative never.
	EIP155Day int

	// Pools configures the mining-pool population: PoolZipf > 0 starts
	// from a Zipf size distribution with that exponent, otherwise the
	// population starts uniform. PoolChurn/PoolAlpha/PoolCap drive daily
	// preferential-attachment consolidation once PoolLagDays have passed.
	Pools       int
	PoolZipf    float64
	PoolChurn   float64
	PoolAlpha   float64
	PoolCap     float64
	PoolLagDays int
}

// partitionNameRE is the partition name grammar: uppercase alphanumeric,
// leading letter, at most 16 characters. The constraints keep names
// round-trippable through the lowercase forms used for RPC routes, disk
// subdirectories, CSV headers and address-derivation tags.
var partitionNameRE = regexp.MustCompile(`^[A-Z][A-Z0-9]{0,15}$`)

// behaviour resolves the spec's pool behaviour model.
func (p PartitionSpec) behaviour() (pool.Behaviour, error) {
	return pool.ParseBehaviour(p.Behaviour)
}

// stickyFraction is the fraction of the partition's hashrate pinned to
// the structural schedule by its behaviour model.
func (p PartitionSpec) stickyFraction() float64 {
	b, err := p.behaviour()
	if err != nil {
		return 0
	}
	return b.StickyFraction(p.IdeologicalShare)
}

// economicWeight returns the arbitrage weight with its default applied.
func (p PartitionSpec) economicWeight() float64 {
	if p.EconomicWeight == 0 {
		return 1
	}
	return p.EconomicWeight
}

// structuralShare returns the partition's structural hashrate share on
// day t (anchor partitions are handled by the caller as the residual).
func (p PartitionSpec) structuralShare(t float64, day int) float64 {
	s := p.ShareAtFork
	if p.RejoinTauDays > 0 {
		s += p.RejoinShare * (1 - math.Exp(-t/p.RejoinTauDays))
	}
	if p.CollapseDay > 0 && day >= p.CollapseDay {
		if p.CollapseTauDays > 0 {
			s *= math.Exp(-(t - float64(p.CollapseDay)) / p.CollapseTauDays)
		} else {
			s = 0
		}
	}
	return s
}

// marketParams maps the spec onto its leg of the coupled price walk.
func (p PartitionSpec) marketParams() market.ChainParams {
	return market.ChainParams{Price0: p.Price0, DriftEdge: p.DriftEdge, RallyShare: p.RallyShare}
}

// ChainConfig builds the partition's consensus rules. Every partition
// forks at block 1 from the shared genesis; drain and refund apply only
// under DAOSupport.
func (p PartitionSpec) ChainConfig(drain []types.Address, refund types.Address) *chain.Config {
	return chain.PartitionConfig(p.Name, p.ChainID, 1, p.DAOSupport, drain, refund)
}

// Registry is the partition registry: the resolved, validated spec list
// and the index ↔ name mapping every layer shares. No layer downstream
// of the registry assumes k=2.
type Registry struct {
	specs  []PartitionSpec
	byName map[string]int
}

// NewRegistry builds a registry over a resolved spec list. The caller is
// expected to have validated the scenario; NewRegistry only enforces the
// invariants it needs for the mapping itself (non-empty, unique names).
func NewRegistry(specs []PartitionSpec) (*Registry, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: partition list is empty")
	}
	byName := make(map[string]int, len(specs))
	for i, sp := range specs {
		if _, dup := byName[sp.Name]; dup {
			return nil, fmt.Errorf("sim: duplicate partition name %q", sp.Name)
		}
		byName[sp.Name] = i
	}
	return &Registry{specs: specs, byName: byName}, nil
}

// Len returns the partition count.
func (r *Registry) Len() int { return len(r.specs) }

// Specs returns the spec list in partition order (do not mutate).
func (r *Registry) Specs() []PartitionSpec { return r.specs }

// Index maps a partition name to its slot.
func (r *Registry) Index(name string) (int, bool) {
	i, ok := r.byName[name]
	return i, ok
}

// Names returns the partition names in order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.specs))
	for i, sp := range r.specs {
		out[i] = sp.Name
	}
	return out
}

// PartitionSpecs resolves the scenario's partition list: the explicit
// Partitions field when set, otherwise the legacy two-way synthesis.
func (sc *Scenario) PartitionSpecs() []PartitionSpec {
	if len(sc.Partitions) > 0 {
		return sc.Partitions
	}
	return sc.LegacyPartitions()
}

// Registry resolves and indexes the scenario's partitions.
func (sc *Scenario) Registry() (*Registry, error) {
	return NewRegistry(sc.PartitionSpecs())
}

// PartitionNames returns the resolved partition names in order.
func (sc *Scenario) PartitionNames() []string {
	specs := sc.PartitionSpecs()
	out := make([]string, len(specs))
	for i, sp := range specs {
		out[i] = sp.Name
	}
	return out
}

// StructHashrates returns every partition's structural hashrate on the
// given day — the schedule of fork exit, rejoin, collapse, exogenous
// growth and the Zcash event, before price arbitrage. The anchor (index
// 0) takes the residual share.
func (sc *Scenario) StructHashrates(day int, specs []PartitionSpec) []float64 {
	t := float64(day)
	shares := make([]float64, len(specs))
	rest := 0.0
	for i := 1; i < len(specs); i++ {
		s := specs[i].structuralShare(t, day)
		shares[i] = s
		rest += s
	}
	shares[0] = 1 - rest
	growth := math.Pow(1+sc.ETHGrowthPerDay, t)
	zcash := 1.0
	if sc.ZcashLaunchDay > 0 && day >= sc.ZcashLaunchDay {
		dt := t - float64(sc.ZcashLaunchDay)
		zcash = 1 - sc.ZcashPull*math.Exp(-dt/sc.ZcashReturnTauDays)
	}
	total := sc.TotalHashrate * growth * zcash
	out := make([]float64, len(specs))
	for i := range specs {
		out[i] = total * shares[i]
	}
	return out
}

// maxTxPerDay caps a partition's daily transaction rate at 100 000, above
// the tens of thousands either chain carried in the paper's window.
// poisson's cost is linear in the rate (it halves rates above 500), so
// the cap bounds a simulated day: at the cap, about 0.1 s of fast-mode
// work per partition on a 2-core host.
const maxTxPerDay = 1e5

// partitionKnobs declares every -partitions key once: ParsePartitionSpecs
// sets and defaults fields through it, and Validate checks every spec,
// parsed or built in Go, against the same bounds. The bounds keep the
// engine's arithmetic finite: prices, weights and drifts stop short of
// overflowing the price walk, and the pool exponents short of
// underflowing attachment.
var partitionKnobs = []spec.Knob{
	{Keys: "chainid", Field: "ChainID", Default: func(idx int) any { return idx + 1 }},
	// The anchor keeps the pro-fork rules by default.
	{Keys: "dao", Field: "DAOSupport", Default: func(idx int) any { return idx == 0 }},
	{Keys: "share", Field: "ShareAtFork", Max: 1},
	{Keys: "weight", Field: "EconomicWeight", Max: 1e6},
	{Keys: "rejoin", Field: "RejoinShare", Max: 1},
	{Keys: "rejointau", Field: "RejoinTauDays", Max: math.Inf(1)},
	{Keys: "collapseday", Field: "CollapseDay", Max: math.Inf(1)},
	{Keys: "collapsetau", Field: "CollapseTauDays", Max: math.Inf(1)},
	{Keys: "behaviour|behavior", Field: "Behaviour"},
	{Keys: "ideological", Field: "IdeologicalShare", Max: 1},
	{Keys: "price0", Field: "Price0", Min: 1e-6, Max: 1e6, Default: 1},
	{Keys: "driftedge", Field: "DriftEdge", Min: -0.1, Max: 0.1},
	{Keys: "rallyshare", Field: "RallyShare", Max: 1},
	{Keys: "primary", Field: "PrimaryFraction", Max: 1},
	{Keys: "txperday", Field: "TxPerDay", Max: maxTxPerDay, Default: 100},
	{Keys: "speculation", Field: "Speculation"},
	{Keys: "eip155", Field: "EIP155Day", Default: -1},
	{Keys: "pools", Field: "Pools", Min: 1, Max: 10_000, Default: 20},
	{Keys: "zipf", Field: "PoolZipf", Max: 10},
	{Keys: "churn", Field: "PoolChurn", Max: 1},
	{Keys: "alpha", Field: "PoolAlpha", Max: 10, Default: 1},
	{Keys: "cap", Field: "PoolCap", Max: 1, Default: 0.24},
	{Keys: "lag", Field: "PoolLagDays", Max: math.Inf(1)},
}

// Validate checks the scenario: every partition knob and crash field
// against its declared bounds, then the cross-field rules. Every
// violation is reported with the offending field, and the
// zero-configured legacy scenario always passes.
func (sc *Scenario) Validate() error {
	if sc.Days < 0 {
		return fmt.Errorf("sim: Days %d is negative", sc.Days)
	}
	if sc.DayLength == 0 {
		return fmt.Errorf("sim: DayLength must be positive")
	}
	if sc.Parallelism < 0 {
		return fmt.Errorf("sim: Parallelism %d is negative", sc.Parallelism)
	}
	if err := sc.StorageFaults.Validate(); err != nil {
		return fmt.Errorf("sim: StorageFaults: %w", err)
	}
	specs := sc.PartitionSpecs()
	if len(specs) == 0 {
		return fmt.Errorf("sim: partition list is empty")
	}
	names := make(map[string]bool, len(specs))
	chainIDs := make(map[uint64]string, len(specs))
	shareSum := 0.0
	primarySum := 0.0
	weightSum := 0.0
	for i, sp := range specs {
		where := fmt.Sprintf("sim: partition %d (%q)", i, sp.Name)
		if err := spec.Check(sp, partitionKnobs); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		if !partitionNameRE.MatchString(sp.Name) {
			return fmt.Errorf("%s: name must match %s", where, partitionNameRE)
		}
		if names[sp.Name] {
			return fmt.Errorf("%s: duplicate name", where)
		}
		names[sp.Name] = true
		// Every partition needs its own replay domain, and 0 is none.
		if sp.ChainID == 0 {
			return fmt.Errorf("%s: ChainID must be nonzero", where)
		}
		if prev, dup := chainIDs[sp.ChainID]; dup {
			return fmt.Errorf("%s: ChainID %d already used by %q", where, sp.ChainID, prev)
		}
		chainIDs[sp.ChainID] = sp.Name
		if i > 0 {
			shareSum += sp.ShareAtFork
		}
		weightSum += sp.economicWeight()
		if _, err := sp.behaviour(); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		primarySum += sp.PrimaryFraction
	}
	const tol = 1e-9
	if shareSum > 1+tol {
		return fmt.Errorf("sim: non-anchor ShareAtFork sum %g exceeds 1", shareSum)
	}
	if anchor := specs[0].ShareAtFork; anchor != 0 && math.Abs(anchor-(1-shareSum)) > tol {
		return fmt.Errorf("sim: anchor ShareAtFork %g is neither 0 (auto) nor the residual %g", anchor, 1-shareSum)
	}
	if weightSum <= 0 {
		return fmt.Errorf("sim: economic weights sum to %g (need > 0)", weightSum)
	}
	if primarySum > 1+tol {
		return fmt.Errorf("sim: PrimaryFraction sum %g exceeds 1", primarySum)
	}
	for i, cs := range sc.Crashes {
		if err := spec.Check(cs, crashKnobs); err != nil {
			return fmt.Errorf("sim: crash spec %d: %w", i, err)
		}
		if !names[cs.Chain] {
			return fmt.Errorf("sim: crash spec %d names unknown chain %q (have %s)", i, cs.Chain, strings.Join(sortedNames(names), ", "))
		}
	}
	return nil
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ParsePartitionSpecs parses the -partitions flag grammar: partitions
// separated by ';', each NAME[:key=value,...]. Example:
//
//	MAIN:weight=0.7,txperday=400;CLASSIC:share=0.3,weight=0.3,behaviour=mixed,rejoin=0.05,rejointau=10
//
// The keys, their ranges and their defaults are partitionKnobs. Unset
// keys default to a neutral spec (chain id index+1, weight 1, price0 1,
// 20 uniform pools, EIP-155 never).
func ParsePartitionSpecs(s string) ([]PartitionSpec, error) {
	var out []PartitionSpec
	for _, part := range spec.List(s, ";") {
		name, rest, _ := strings.Cut(part, ":")
		name = strings.ToUpper(strings.TrimSpace(name))
		sp := PartitionSpec{Name: name}
		spec.Defaults(&sp, partitionKnobs, len(out))
		if err := spec.Parse(&sp, partitionKnobs, rest); err != nil {
			return nil, fmt.Errorf("sim: partition %q: %w", name, err)
		}
		out = append(out, sp)
	}
	return out, nil
}
