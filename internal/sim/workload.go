package sim

import (
	"math"
	"math/big"
	"math/rand"
	"strings"

	"forkwatch/internal/chain"
	"forkwatch/internal/keccak"
	"forkwatch/internal/prng"
	"forkwatch/internal/types"
)

// gasPrice used by all workload transactions (20 gwei).
var workloadGasPrice = big.NewInt(20_000_000_000)

// transferValue is the standard payment size (0.01 ether).
var transferValue = big.NewInt(10_000_000_000_000_000)

// zeroValue is the shared zero-wei operand of contract calls.
var zeroValue = new(big.Int)

// contractCallData is the fixed calldata of every marker-contract call.
//
// These three are shared by pointer across every workload transaction
// (DESIGN.md §15): nothing downstream mutates a transaction's operands —
// state and the EVM copy amounts before arithmetic.
var contractCallData = []byte{0xab, 0x01, 0x02, 0x03}

// Workload generates the daily transaction traffic of every partition:
// user payments and contract calls, the fund-splitting behaviour of
// cautious users, gradual chain-id adoption, and the rebroadcast
// ("echo") attacker of the paper's Figure 4.
//
// Concurrency model: all per-chain state (traffic RNG, nonce tracking,
// replay queues, the day's mined transactions) lives in chainTraffic
// slots, and the per-user flags are slices indexed by chain slot, so
// DayTraffic and ObserveMined for different chains never write the same
// memory and may run on separate goroutines. Anything that couples the
// chains — the echo attacker's mirror decisions — is deferred to
// FlushEchoes, which the engine calls single-threaded at the day barrier.
type Workload struct {
	sc    *Scenario
	specs []PartitionSpec

	users     []*simUser
	active    [][]*simUser // users transacting on each chain, by slot
	contracts []types.Address

	chains  []*chainTraffic
	chainIx map[string]int

	// echoR drives the rebroadcast attacker's per-sender mirror decisions.
	// It is consumed only inside FlushEchoes — partitions in order, each
	// in block order — so its draw sequence is identical no matter how the
	// partition goroutines interleaved during the day.
	echoR *rand.Rand

	// replayed marks transactions already queued for rebroadcast; mirrored
	// marks senders whose replayable stream an attacker rebroadcasts
	// wholesale. Mirroring whole senders (not individual transactions) is
	// what keeps nonces aligned across chains and makes echoes persist for
	// months, as Fig 4 shows. Both maps are only touched at the barrier.
	replayed map[types.Hash]bool
	mirrored map[types.Address]bool
}

// chainTraffic is one chain's slice of workload state, owned by that
// chain's partition goroutine between day barriers.
type chainTraffic struct {
	idx  int
	name string

	// chainID, txPerDay and speculation come from the partition's spec:
	// the replay domain for chain-bound signatures, the base Poisson
	// rate, and whether the speculative ramp applies.
	chainID     uint64
	txPerDay    float64
	speculation bool

	// r is the chain's private traffic stream (prng.Derive over the
	// scenario seed and the chain name): submission times, recipient
	// picks, adoption rolls.
	r *rand.Rand

	// nextNonce tracks nonces handed out today; cleared and re-synced from
	// the ledger at each day start (dropped transactions release their
	// nonces overnight).
	nextNonce map[types.Address]uint64

	// lastSecond tracks each sender's latest submission second within the
	// current DayTraffic call, cleared per day; keeps nonces in order.
	lastSecond map[types.Address]uint64

	// plans is the reusable DayTraffic output buffer; the engine copies
	// the plans into its pending queue before the next day's call.
	plans []txPlan

	// replayQueue holds mined replayable transactions awaiting rebroadcast
	// on THIS chain. Filled by FlushEchoes at the barrier, drained by
	// DayTraffic the next day.
	replayQueue []*chain.Transaction

	// mined accumulates the day's included transactions, in block
	// order; FlushEchoes drains it at the barrier.
	mined []*chain.Transaction
}

type simUser struct {
	common   types.Address
	split    bool
	splitDay int
	// splitAddr is the user's chain-specific address per chain slot,
	// derived from the lowercase partition name.
	splitAddr []types.Address
	// primaryIdx is the slot of the only network the user participates
	// in, or -1 for users active on every partition.
	primaryIdx int
	// legacy users never adopt chain-bound transactions.
	legacy bool
	// splitDone per chain slot. Distinct elements of a slice are
	// race-free where distinct map keys are not, and a user active on
	// several chains is written by several partition goroutines.
	splitDone []bool
	// adopted per chain slot: whether the user switched to
	// replay-protected transactions.
	adopted []bool
}

// NewWorkload builds the user population from the scenario. Every
// stochastic component gets its own stream derived from the scenario seed
// (internal/prng): the population itself, each chain's traffic, and the
// echo attacker — which is what keeps runs byte-identical between the
// serial and parallel engines. The streams key on partition names, so
// the historical two-way population is unchanged under the N-way engine.
func NewWorkload(sc *Scenario) *Workload {
	specs := sc.PartitionSpecs()
	k := len(specs)
	r := prng.New(sc.Seed, "workload")
	w := &Workload{
		sc:       sc,
		specs:    specs,
		active:   make([][]*simUser, k),
		chains:   make([]*chainTraffic, k),
		chainIx:  make(map[string]int, k),
		echoR:    prng.New(sc.Seed, "echo"),
		replayed: map[types.Hash]bool{},
		mirrored: map[types.Address]bool{},
	}
	for i, sp := range specs {
		w.chains[i] = &chainTraffic{
			idx:         i,
			name:        sp.Name,
			chainID:     sp.ChainID,
			txPerDay:    sp.TxPerDay,
			speculation: sp.Speculation,
			r:           prng.New(sc.Seed, "traffic", sp.Name),
			nextNonce:   map[types.Address]uint64{},
			lastSecond:  map[types.Address]uint64{},
		}
		w.chainIx[sp.Name] = i
	}
	for i := 0; i < sc.Users; i++ {
		u := &simUser{
			common:     UserAddress(i),
			primaryIdx: -1,
			splitDone:  make([]bool, k),
			adopted:    make([]bool, k),
		}
		// One roll against the cumulative primary fractions, in partition
		// order; users past the sum participate everywhere.
		roll := r.Float64()
		cum := 0.0
		for j, sp := range specs {
			cum += sp.PrimaryFraction
			if roll < cum {
				u.primaryIdx = j
				break
			}
		}
		u.legacy = r.Float64() >= sc.ChainIDAdoptionMax
		if r.Float64() < sc.SplitFraction {
			u.split = true
			u.splitDay = 1 + r.Intn(14) // users react over the first two weeks
			u.splitAddr = make([]types.Address, k)
			for j, sp := range specs {
				u.splitAddr[j] = deriveAddr(u.common, strings.ToLower(sp.Name))
			}
		}
		w.users = append(w.users, u)
	}
	for _, u := range w.users {
		for j := range specs {
			if u.primaryIdx == j || u.primaryIdx == -1 {
				w.active[j] = append(w.active[j], u)
			}
		}
	}
	for i := 0; i < 4; i++ {
		w.contracts = append(w.contracts, ContractAddress(i))
	}
	return w
}

func deriveAddr(base types.Address, tag string) types.Address {
	h := keccak.Sum256(append(base.Bytes(), tag...))
	return types.BytesToAddress(h[12:])
}

// Genesis returns the allocation shared by all chains: user balances,
// DAO accounts and marker contracts.
func (w *Workload) Genesis() *chain.Genesis {
	gen := &chain.Genesis{
		Difficulty: w.sc.GenesisDifficulty(),
		Time:       w.sc.Epoch,
		Alloc:      map[types.Address]*big.Int{},
		Code:       map[types.Address][]byte{},
	}
	for _, u := range w.users {
		gen.Alloc[u.common] = types.BigCopy(w.sc.UserFunds)
	}
	for i := 0; i < w.sc.DAOAccounts; i++ {
		gen.Alloc[DAOAddress(i)] = types.BigCopy(w.sc.DAOFunds)
	}
	// Marker contracts: a single SSTORE so calls execute successfully
	// under the full EVM.
	code := []byte{
		0x60, 0x01, // PUSH1 1
		0x60, 0x00, // PUSH1 0
		0x55, // SSTORE
		0x00, // STOP
	}
	for _, c := range w.contracts {
		gen.Code[c] = code
	}
	return gen
}

// DAODrainList returns the accounts the supporting chain drains.
func (w *Workload) DAODrainList() []types.Address {
	var out []types.Address
	for i := 0; i < w.sc.DAOAccounts; i++ {
		out = append(out, DAOAddress(i))
	}
	return out
}

// txPlan is a transaction with its submission second within the day.
type txPlan struct {
	tx     *chain.Transaction
	second uint64
}

// DayTraffic generates the submission plan for one chain for one day,
// including queued rebroadcasts. eipDay is the day chain-bound
// transactions activate on that chain; ledger supplies nonces and
// balances. Safe to call concurrently for different chains: it only
// touches the named chain's slot.
//
// Every transaction it returns is signed. The day's new transactions are
// minted with SignLazy while the plan is drawn and signed in one
// FinishSign loop at the end, after the echoes it replays.
func (w *Workload) DayTraffic(day int, chainName string, led Ledger, eipDay int) []txPlan {
	ct := w.chains[w.chainIx[chainName]]
	// Release yesterday's unconfirmed nonces: the ledger is the truth.
	// The maps and the plan buffer are cleared in place, not reallocated.
	clear(ct.nextNonce)
	clear(ct.lastSecond)
	plans := ct.plans[:0]
	echoes := 0
	defer func() {
		for i := echoes; i < len(plans); i++ {
			plans[i].tx.FinishSign()
		}
		ct.plans = plans
	}()

	// 1. Queued rebroadcasts (the echo traffic). Submission seconds
	// spread over the day but preserve queue order: the rebroadcaster
	// replays each sender's stream in nonce order, or the chain breaks.
	if q := ct.replayQueue; len(q) > 0 {
		step := w.sc.DayLength / uint64(len(q)+1)
		if step == 0 {
			step = 1
		}
		for i, tx := range q {
			plans = append(plans, txPlan{tx: tx, second: uint64(i+1) * step})
		}
		ct.replayQueue = ct.replayQueue[:0]
		echoes = len(plans)
	}

	// 2. Fund-splitting transactions. Users only split chains they
	// participate in; a "picked one network" user leaves the other
	// chains' copies of their funds at the vulnerable common address.
	for _, u := range w.active[ct.idx] {
		if !u.split || u.splitDone[ct.idx] || day < u.splitDay {
			continue
		}
		bal := led.BalanceOf(u.common)
		// Keep a gas cushion behind.
		cushion := new(big.Int).Mul(workloadGasPrice, big.NewInt(10*21_000))
		value := new(big.Int).Sub(bal, cushion)
		if value.Sign() <= 0 {
			u.splitDone[ct.idx] = true
			continue
		}
		tx := new(chain.Transaction)
		tx.Nonce = ct.claimNonce(led, u.common)
		tx.To = &u.splitAddr[ct.idx]
		tx.Value = value
		tx.GasLimit = 21_000
		tx.GasPrice = workloadGasPrice
		// Pre-EIP-155 there is nothing to bind to; the split tx itself
		// is replayable — the hazard the paper describes.
		tx.SignLazy(u.common, w.chainIDFor(ct, day, eipDay, u))
		u.splitDone[ct.idx] = true
		plans = append(plans, txPlan{tx: tx, second: uint64(ct.r.Int63n(int64(w.sc.DayLength)))})
	}

	// 3. Regular traffic.
	rate := ct.txPerDay
	if w.sc.SpeculationFactor > 1 && day >= w.sc.SpeculationStartDay && ct.speculation {
		ramp := math.Min(1, float64(day-w.sc.SpeculationStartDay)/30)
		rate *= 1 + (w.sc.SpeculationFactor-1)*ramp
	}
	n := poisson(ct.r, rate)
	// Submission seconds are monotone per sender so a sender's nonces
	// arrive in order (real wallets serialise; out-of-order nonces would
	// be queued by real tx pools rather than dropped).
	lastSecond := ct.lastSecond
	population := w.active[ct.idx]
	if len(population) == 0 {
		return plans
	}
	for i := 0; i < n; i++ {
		u := population[ct.r.Intn(len(population))]
		from := senderFor(u, ct.idx)
		tx := new(chain.Transaction)
		if ct.r.Float64() < w.sc.ContractFraction {
			tx.Nonce = ct.claimNonce(led, from)
			tx.To = &w.contracts[ct.r.Intn(len(w.contracts))]
			tx.Value = zeroValue
			tx.GasLimit = 120_000
			tx.GasPrice = workloadGasPrice
			tx.Data = contractCallData
		} else {
			peer := population[ct.r.Intn(len(population))]
			tx.Nonce = ct.claimNonce(led, from)
			tx.To = senderPtr(peer, ct.idx)
			tx.Value = transferValue
			tx.GasLimit = 21_000
			tx.GasPrice = workloadGasPrice
		}
		tx.SignLazy(from, w.chainIDFor(ct, day, eipDay, u))
		second := uint64(ct.r.Int63n(int64(w.sc.DayLength)))
		if prev, ok := lastSecond[from]; ok && second <= prev {
			second = prev + 1
		}
		lastSecond[from] = second
		plans = append(plans, txPlan{tx: tx, second: second})
	}
	return plans
}

// senderFor picks the address a user transacts from on the given chain.
func senderFor(u *simUser, idx int) types.Address {
	if u.split && u.splitDone[idx] {
		return u.splitAddr[idx]
	}
	return u.common
}

// senderPtr is senderFor without the copy: it points into the user's own
// address storage, which is immutable once the population is built, so
// transactions can share it as their To field.
func senderPtr(u *simUser, idx int) *types.Address {
	if u.split && u.splitDone[idx] {
		return &u.splitAddr[idx]
	}
	return &u.common
}

// chainIDFor decides whether the user binds the transaction to the chain,
// drawing adoption rolls from the chain's own stream.
func (w *Workload) chainIDFor(ct *chainTraffic, day, eipDay int, u *simUser) uint64 {
	if eipDay < 0 || day < eipDay || u.legacy {
		return 0
	}
	if !u.adopted[ct.idx] {
		// Adoption ramps in exponentially after activation.
		p := 1 - math.Exp(-float64(day-eipDay)/w.sc.ChainIDAdoptionTauDays)
		if ct.r.Float64() >= p {
			return 0
		}
		u.adopted[ct.idx] = true
	}
	return ct.chainID
}

func (ct *chainTraffic) claimNonce(led Ledger, addr types.Address) uint64 {
	n, ok := ct.nextNonce[addr]
	if !ok || n < led.NonceOf(addr) {
		n = led.NonceOf(addr)
	}
	ct.nextNonce[addr] = n + 1
	return n
}

// ObserveMined records a mined block's included transactions for the
// rebroadcast attacker, copying them out of txs. Only the calling chain's
// slot is appended to, so partitions may call it concurrently; the echo
// decisions themselves — which couple the chains — happen in FlushEchoes
// at the day barrier.
func (w *Workload) ObserveMined(chainName string, txs []*chain.Transaction) {
	if len(txs) == 0 {
		return
	}
	ct := w.chains[w.chainIx[chainName]]
	ct.mined = append(ct.mined, txs...)
}

// FlushEchoes runs the rebroadcast attacker over the day's mined
// transactions: partitions in order, each in block order — a fixed
// sequence regardless of how the partition goroutines interleaved during
// the day, which keeps the echo stream's draws deterministic. Replayable
// transactions from mirrored senders are queued for rebroadcast on every
// OTHER chain (one attacker decision covers all of them); DayTraffic
// drains the queues tomorrow, so deferring the decisions to the barrier
// changes nothing downstream.
func (w *Workload) FlushEchoes() {
	for _, ct := range w.chains {
		for _, tx := range ct.mined {
			if tx.ChainID != 0 {
				continue // replay-protected: can never surface on another chain
			}
			h := tx.Hash()
			if w.replayed[h] {
				continue // an echo completing its tour
			}
			on, decided := w.mirrored[tx.From]
			if !decided {
				on = w.echoR.Float64() < w.sc.ReplayProbability
				w.mirrored[tx.From] = on
			}
			if on {
				w.replayed[h] = true
				for _, other := range w.chains {
					if other != ct {
						other.replayQueue = append(other.replayQueue, tx)
					}
				}
			}
		}
		clear(ct.mined)
		ct.mined = ct.mined[:0]
	}
}

// dropCarried lets go of what the workload carries from day to day (plans,
// mined transactions, rebroadcast queues and the echo attacker's replayed and
// mirrored sets); the engine calls it when a run ends, so a kept engine
// pins none of the run's transactions or echo bookkeeping.
func (w *Workload) dropCarried() {
	for _, ct := range w.chains {
		ct.plans, ct.mined, ct.replayQueue = nil, nil, nil
	}
	w.replayed, w.mirrored = nil, nil
}

// poisson draws a Poisson variate via Knuth's method (rates here are a
// few hundred, where this is fast and exact).
func poisson(r *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	// For large rates, split to keep the product in float range.
	if lambda > 500 {
		return poisson(r, lambda/2) + poisson(r, lambda/2)
	}
	limit := math.Exp(-lambda)
	n := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= limit {
			return n
		}
		n++
	}
}
