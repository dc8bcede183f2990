package sim

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"forkwatch/internal/chain"
	"forkwatch/internal/types"
)

var (
	alice = types.HexToAddress("0xa11ce")
	bob   = types.HexToAddress("0xb0b")
	miner = types.HexToAddress("0x31")
)

func testGenesis() *chain.Genesis {
	return &chain.Genesis{
		Difficulty: big.NewInt(1 << 20),
		Time:       1_469_020_840,
		Alloc: map[types.Address]*big.Int{
			alice: new(big.Int).Mul(big.NewInt(100), chain.Ether),
			bob:   new(big.Int).Mul(big.NewInt(100), chain.Ether),
		},
	}
}

func transfer(nonce uint64, from, to types.Address, wei int64, chainID uint64) *chain.Transaction {
	return chain.NewTransaction(nonce, &to, big.NewInt(wei), 21_000, big.NewInt(1), nil).Sign(from, chainID)
}

func TestFastLedgerBasics(t *testing.T) {
	led := NewFastLedger(chain.MainnetLikeConfig(), testGenesis())
	if led.HeadNumber() != 0 || led.HeadTime() != 1_469_020_840 {
		t.Fatalf("bad genesis head: %d @ %d", led.HeadNumber(), led.HeadTime())
	}
	tx := transfer(0, alice, bob, 1000, 0)
	included, err := led.MineBlock(led.HeadTime()+14, miner, []*chain.Transaction{tx})
	if err != nil {
		t.Fatal(err)
	}
	if len(included) != 1 {
		t.Fatalf("included %d txs", len(included))
	}
	if led.NonceOf(alice) != 1 {
		t.Error("nonce not advanced")
	}
	wantBob := new(big.Int).Add(new(big.Int).Mul(big.NewInt(100), chain.Ether), big.NewInt(1000))
	if led.BalanceOf(bob).Cmp(wantBob) != 0 {
		t.Errorf("bob balance = %v", led.BalanceOf(bob))
	}
	// Coinbase got reward + fee.
	wantMiner := new(big.Int).Add(led.Config().BlockReward, big.NewInt(21_000))
	if led.BalanceOf(miner).Cmp(wantMiner) != 0 {
		t.Errorf("miner balance = %v, want %v", led.BalanceOf(miner), wantMiner)
	}
}

func TestFastLedgerValidation(t *testing.T) {
	led := NewFastLedger(chain.MainnetLikeConfig(), testGenesis())
	// Nonce gap.
	if err := led.ValidateTx(transfer(5, alice, bob, 1, 0)); !errors.Is(err, chain.ErrNonceTooHigh) {
		t.Errorf("future nonce: %v", err)
	}
	// Unknown sender has no funds.
	ghost := types.HexToAddress("0x60057")
	if err := led.ValidateTx(transfer(0, ghost, bob, 1, 0)); !errors.Is(err, chain.ErrInsufficientFunds) {
		t.Errorf("unfunded: %v", err)
	}
	// Chain-bound tx before EIP-155 activation.
	if err := led.ValidateTx(transfer(0, alice, bob, 1, 1)); !errors.Is(err, chain.ErrWrongChainID) {
		t.Errorf("pre-activation chain id: %v", err)
	}
	// After activation: correct id passes, wrong id fails.
	led.Config().EIP155Block = big.NewInt(0)
	if err := led.ValidateTx(transfer(0, alice, bob, 1, led.Config().ChainID)); err != nil {
		t.Errorf("bound tx on own chain: %v", err)
	}
	if err := led.ValidateTx(transfer(0, alice, bob, 1, 999)); !errors.Is(err, chain.ErrWrongChainID) {
		t.Errorf("bound tx for other chain: %v", err)
	}
	// Tampered signature.
	bad := transfer(0, alice, bob, 1, 0)
	bad.Value = big.NewInt(7)
	if err := led.ValidateTx(bad); !errors.Is(err, chain.ErrBadSignature) {
		t.Errorf("tampered: %v", err)
	}
}

func TestFastLedgerDAOFork(t *testing.T) {
	gen := testGenesis()
	dao := DAOAddress(0)
	gen.Alloc[dao] = big.NewInt(1_000_000)
	cfg := chain.ETHConfig(1, []types.Address{dao}, DAORefundAddress)
	led := NewFastLedger(cfg, gen)
	if _, err := led.MineBlock(led.HeadTime()+14, miner, nil); err != nil {
		t.Fatal(err)
	}
	if led.BalanceOf(dao).Sign() != 0 {
		t.Error("DAO not drained at fork block")
	}
	if led.BalanceOf(DAORefundAddress).Int64() != 1_000_000 {
		t.Error("refund contract did not receive the drain")
	}
	// The non-supporting chain keeps the balance.
	etc := NewFastLedger(chain.ETCConfig(1), gen)
	if _, err := etc.MineBlock(etc.HeadTime()+14, miner, nil); err != nil {
		t.Fatal(err)
	}
	if etc.BalanceOf(dao).Int64() != 1_000_000 {
		t.Error("ETC should keep the DAO balance")
	}
}

func TestFastLedgerDifficultyMatchesConsensusRule(t *testing.T) {
	cfg := chain.MainnetLikeConfig()
	led := NewFastLedger(cfg, testGenesis())
	parent := &chain.Header{Time: led.HeadTime(), Difficulty: led.HeadDifficulty()}
	tm := led.HeadTime() + 5
	want := chain.CalcDifficulty(cfg, tm, parent)
	led.MineBlock(tm, miner, nil)
	if led.HeadDifficulty().Cmp(want) != 0 {
		t.Errorf("difficulty %v, want %v", led.HeadDifficulty(), want)
	}
}

// TestLedgerConformance drives the fast and full ledgers with an identical
// block/transaction script — including replays, chain binding, nonce gaps
// and underfunded senders — and requires identical inclusion decisions and
// account outcomes. This is what licenses using the fast ledger for the
// nine-month experiments.
func TestLedgerConformance(t *testing.T) {
	gen := testGenesis()
	dao := DAOAddress(0)
	gen.Alloc[dao] = big.NewInt(5_000_000)
	cfgFast := chain.ETHConfig(1, []types.Address{dao}, DAORefundAddress)
	cfgFull := chain.ETHConfig(1, []types.Address{dao}, DAORefundAddress)
	cfgFast.EIP155Block = big.NewInt(5)
	cfgFull.EIP155Block = big.NewInt(5)

	fast := NewFastLedger(cfgFast, gen)
	full, err := NewFullLedger(cfgFull, gen, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}

	carol := types.HexToAddress("0xca401")
	script := [][]*chain.Transaction{
		{transfer(0, alice, bob, 100, 0)},
		{transfer(1, alice, carol, 50, 0), transfer(0, bob, carol, 25, 0)},
		{transfer(3, alice, bob, 1, 0)},    // nonce gap: dropped
		{transfer(0, carol, bob, 1000, 0)}, // carol has 75 wei minus nothing... underfunded for gas
		{transfer(2, alice, bob, 10, 1)},   // chain-bound before activation: dropped (block 5 activates)
		{transfer(2, alice, bob, 10, 1)},   // now valid (block 6? activation at 5)
		{transfer(3, alice, bob, 10, 999)}, // wrong chain id: dropped
		{transfer(3, alice, bob, 10, 0)},   // legacy still fine
		{transfer(0, carol, bob, 1, 1-1)},  // carol small spend, maybe funded
	}
	tm := gen.Time
	for i, txs := range script {
		tm += 14
		fastInc, err := fast.MineBlock(tm, miner, txs)
		if err != nil {
			t.Fatalf("block %d fast: %v", i, err)
		}
		fullInc, err := full.MineBlock(tm, miner, txs)
		if err != nil {
			t.Fatalf("block %d full: %v", i, err)
		}
		if len(fastInc) != len(fullInc) {
			t.Fatalf("block %d: fast included %d, full %d", i, len(fastInc), len(fullInc))
		}
		for j := range fastInc {
			if fastInc[j].Hash() != fullInc[j].Hash() {
				t.Fatalf("block %d tx %d: inclusion order diverged", i, j)
			}
		}
		if fast.HeadDifficulty().Cmp(full.HeadDifficulty()) != 0 {
			t.Fatalf("block %d: difficulty diverged: %v vs %v", i, fast.HeadDifficulty(), full.HeadDifficulty())
		}
		if fast.HeadNumber() != full.HeadNumber() || fast.HeadTime() != full.HeadTime() {
			t.Fatalf("block %d: head metadata diverged", i)
		}
	}
	for _, a := range []types.Address{alice, bob, carol, dao, DAORefundAddress, miner} {
		if fast.NonceOf(a) != full.NonceOf(a) {
			t.Errorf("nonce diverged for %s: %d vs %d", a, fast.NonceOf(a), full.NonceOf(a))
		}
		if fast.BalanceOf(a).Cmp(full.BalanceOf(a)) != 0 {
			t.Errorf("balance diverged for %s: %v vs %v", a, fast.BalanceOf(a), full.BalanceOf(a))
		}
	}
}

// shortScenario returns a small, fast scenario for engine tests.
func shortScenario(seed int64, days int, mode Mode) *Scenario {
	sc := NewScenario(seed, days)
	sc.Mode = mode
	sc.DayLength = 3600 // 1-hour days keep block counts small
	sc.Users = 50
	sc.ETHTxPerDay = 40
	sc.ETCTxPerDay = 15
	return sc
}

type countingObserver struct {
	blocks     map[string]int
	days       int
	lastNumber map[string]uint64
	badDelta   int
	badNumber  int
}

func newCountingObserver() *countingObserver {
	return &countingObserver{blocks: map[string]int{}, lastNumber: map[string]uint64{}}
}

func (c *countingObserver) OnBlock(ev *BlockEvent) {
	c.blocks[ev.Chain]++
	if ev.Delta == 0 {
		c.badDelta++
	}
	if ev.Number != c.lastNumber[ev.Chain]+1 {
		c.badNumber++
	}
	c.lastNumber[ev.Chain] = ev.Number
}

func (c *countingObserver) OnDay(ev *DayEvent) { c.days++ }

func TestEngineFastRun(t *testing.T) {
	sc := shortScenario(7, 3, ModeFast)
	eng, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	obs := newCountingObserver()
	eng.AddObserver(obs)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if obs.days != 3 {
		t.Errorf("day events = %d, want 3", obs.days)
	}
	if obs.blocks["ETH"] == 0 || obs.blocks["ETC"] == 0 {
		t.Errorf("no blocks mined: %v", obs.blocks)
	}
	// ETH mines at roughly the target rate; ETC is collapsed on day 0-2.
	if obs.blocks["ETC"] >= obs.blocks["ETH"]/4 {
		t.Errorf("ETC should be collapsed right after the fork: ETH=%d ETC=%d",
			obs.blocks["ETH"], obs.blocks["ETC"])
	}
	if obs.badDelta > 0 || obs.badNumber > 0 {
		t.Errorf("event invariants violated: %d zero deltas, %d non-monotone numbers",
			obs.badDelta, obs.badNumber)
	}
}

// TestLedgerSizeHint: on the default calibration the hint covers the
// blocks a run mines (a retaining observer that reserves it never regrows)
// without reserving much more, and lands near the transaction count.
func TestLedgerSizeHint(t *testing.T) {
	sc := NewScenario(5, 30)
	eng, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	blocks, txs := 0, 0
	eng.AddObserver(&observerFunc{onBlock: func(ev *BlockEvent) {
		blocks++
		txs += len(ev.Txs)
	}})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	hintBlocks, hintTxs := sc.LedgerSizeHint()
	if hintBlocks < blocks || hintBlocks > blocks+blocks/5 {
		t.Errorf("block hint %d for %d mined blocks, want within +20%%", hintBlocks, blocks)
	}
	if hintTxs < txs/2 || hintTxs > 2*txs {
		t.Errorf("tx hint %d for %d mined txs, want within a factor of 2", hintTxs, txs)
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() (int, int) {
		sc := shortScenario(42, 3, ModeFast)
		eng, err := New(sc)
		if err != nil {
			t.Fatal(err)
		}
		obs := newCountingObserver()
		eng.AddObserver(obs)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return obs.blocks["ETH"], obs.blocks["ETC"]
	}
	e1, c1 := run()
	e2, c2 := run()
	if e1 != e2 || c1 != c2 {
		t.Errorf("same seed diverged: (%d,%d) vs (%d,%d)", e1, c1, e2, c2)
	}
}

func TestEngineSeedsDiffer(t *testing.T) {
	blockCount := func(seed int64) int {
		sc := shortScenario(seed, 2, ModeFast)
		eng, _ := New(sc)
		obs := newCountingObserver()
		eng.AddObserver(obs)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return obs.blocks["ETH"]*100000 + obs.blocks["ETC"]
	}
	if blockCount(1) == blockCount(2) && blockCount(3) == blockCount(4) {
		t.Error("different seeds produced identical runs twice; RNG plumbing suspect")
	}
}

// TestEngineFullMode runs the engine against real blockchains and verifies
// the ledgers stay consensus-valid (InsertBlock would fail otherwise) and
// that the DAO fork diverged the two chains' states.
func TestEngineFullMode(t *testing.T) {
	sc := shortScenario(5, 2, ModeFull)
	eng, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	obs := newCountingObserver()
	eng.AddObserver(obs)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	ethBC := eng.Ledger("ETH").(*FullLedger).BC
	etcBC := eng.Ledger("ETC").(*FullLedger).BC
	if ethBC.Genesis().Hash() != etcBC.Genesis().Hash() {
		t.Error("chains must share genesis")
	}
	if ethBC.Head().Number() == 0 {
		t.Error("ETH chain did not advance")
	}
	ethSt, err := ethBC.HeadState()
	if err != nil {
		t.Fatal(err)
	}
	etcSt, err := etcBC.HeadState()
	if err != nil {
		t.Fatal(err)
	}
	dao := DAOAddress(0)
	if ethSt.GetBalance(dao).Sign() != 0 {
		t.Error("ETH should have drained the DAO in full mode")
	}
	if etcSt.GetBalance(dao).Sign() == 0 {
		t.Error("ETC should keep the DAO balance in full mode")
	}
	// Fork blocks carry/omit the marker respectively.
	ethFork, _ := ethBC.BlockByNumber(1)
	etcFork, _ := etcBC.BlockByNumber(1)
	if string(ethFork.Header.Extra) != string(chain.DAOForkExtra) {
		t.Error("ETH fork block missing marker")
	}
	if string(etcFork.Header.Extra) == string(chain.DAOForkExtra) {
		t.Error("ETC fork block should not carry the marker")
	}
}

func TestScenarioHashrates(t *testing.T) {
	sc := NewScenario(1, 270)
	// hashrates is the historical pair's structural (ETH, ETC) schedule.
	hashrates := func(day int) (eth, etc float64) {
		hr := sc.StructHashrates(day, sc.PartitionSpecs())
		return hr[0], hr[1]
	}
	eth0, etc0 := hashrates(0)
	if etc0/(eth0+etc0) > 0.05 {
		t.Errorf("day-0 ETC share too high: %v", etc0/(eth0+etc0))
	}
	// Rejoin raises the ETC share over two weeks.
	_, etc14 := hashrates(14)
	if etc14 <= etc0 {
		t.Error("ETC hashrate should rise as miners rejoin")
	}
	// Zcash launch dips the total.
	ethBefore, etcBefore := hashrates(sc.ZcashLaunchDay - 1)
	ethAfter, etcAfter := hashrates(sc.ZcashLaunchDay)
	if ethAfter+etcAfter >= ethBefore+etcBefore {
		t.Error("Zcash launch should dip total hashrate")
	}
	// Long-run growth.
	eth270, _ := hashrates(269)
	if eth270 < 5*eth0 {
		t.Errorf("ETH hashrate should grow several-fold: %v -> %v", eth0, eth270)
	}
}

func TestForkRaceShareDrivesLength(t *testing.T) {
	cfg := chain.MainnetLikeConfig()
	r := rand.New(rand.NewSource(9))
	// ETH-like: large, well-monitored network — the laggard subgroup
	// notices within a couple of hours. ETC-like: small network, slower
	// operational reaction. These are the E3 calibrations (§2.1's 86 vs
	// 3,583 blocks).
	ethLike := &ForkRace{
		Config: cfg, TotalHashrate: 5e12,
		MinorityShare: 0.2, NoticeMeanSeconds: 2 * 3600,
	}
	etcLike := &ForkRace{
		Config: cfg, TotalHashrate: 5e11,
		MinorityShare: 0.30, NoticeMeanSeconds: 20 * 3600,
	}
	ethLen := ethLike.RunMean(50, r)
	etcLen := etcLike.RunMean(50, r)
	if etcLen < 10*ethLen {
		t.Errorf("small-network fork should sustain far longer: ETH-like %.0f vs ETC-like %.0f", ethLen, etcLen)
	}
	// Rough magnitudes: tens-to-low-hundreds vs thousands of blocks.
	if ethLen > 500 {
		t.Errorf("ETH-like fork too long: %.0f blocks", ethLen)
	}
	if etcLen < 1000 {
		t.Errorf("ETC-like fork too short: %.0f blocks", etcLen)
	}
}

func TestPoissonMean(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, lambda := range []float64{0, 5, 100, 1200} {
		const n = 3000
		sum := 0
		for i := 0; i < n; i++ {
			sum += poisson(r, lambda)
		}
		mean := float64(sum) / n
		if lambda == 0 && mean != 0 {
			t.Error("lambda 0 should always be 0")
		}
		if lambda > 0 && (mean < lambda*0.93 || mean > lambda*1.07) {
			t.Errorf("poisson(%v) mean = %v", lambda, mean)
		}
	}
}

// TestCalibrationShortTerm guards the Fig 1 / E2 calibration: the default
// scenario must keep reproducing the paper's headline shapes — a near-dead
// ETC in the first hours, deltas over 1,200s, recovery on the order of
// one-to-two days, an unaffected ETH.
func TestCalibrationShortTerm(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run takes ~300ms")
	}
	sc := NewScenario(1, 4) // 4 real days
	eng, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	type hourStats struct {
		blocks   map[string][]int
		maxDelta uint64
	}
	stats := hourStats{blocks: map[string][]int{}}
	obs := observerFunc{
		onBlock: func(ev *BlockEvent) {
			h := int((ev.Time - sc.Epoch) / 3600)
			s := stats.blocks[ev.Chain]
			for len(s) <= h {
				s = append(s, 0)
			}
			s[h]++
			stats.blocks[ev.Chain] = s
			if ev.Chain == "ETC" && ev.Delta > stats.maxDelta {
				stats.maxDelta = ev.Delta
			}
		},
	}
	eng.AddObserver(&obs)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	etc := stats.blocks["ETC"]
	eth := stats.blocks["ETH"]
	early := 0
	for h := 0; h < 6 && h < len(etc); h++ {
		early += etc[h]
	}
	if early > 60 { // target rate would be ~1540 blocks in 6 hours
		t.Errorf("ETC not collapsed after the fork: %d blocks in 6h", early)
	}
	if stats.maxDelta < 1200 {
		t.Errorf("max ETC delta %ds; the paper observed spikes over 1200s", stats.maxDelta)
	}
	// ETH hums along at roughly the target rate from hour zero.
	if eth[0] < 150 || eth[0] > 400 {
		t.Errorf("ETH first hour = %d blocks, expected near 257", eth[0])
	}
	// By day 3-4 ETC is producing at a healthy rate again.
	lateStart := 3 * 24
	late := 0
	n := 0
	for h := lateStart; h < lateStart+12 && h < len(etc); h++ {
		late += etc[h]
		n++
	}
	if n > 0 && late/n < 180 {
		t.Errorf("ETC day-4 rate = %d blocks/hr, expected recovery toward 257", late/n)
	}
}

// observerFunc adapts closures to the Observer interface.
type observerFunc struct {
	onBlock func(*BlockEvent)
	onDay   func(*DayEvent)
}

func (o *observerFunc) OnBlock(ev *BlockEvent) {
	if o.onBlock != nil {
		o.onBlock(ev)
	}
}
func (o *observerFunc) OnDay(ev *DayEvent) {
	if o.onDay != nil {
		o.onDay(ev)
	}
}
