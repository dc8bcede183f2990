package chain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"math/big"
	"math/rand"
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/types"
)

// testSeal is a deterministic stand-in for pow.Seal (which imports this
// package): the nonce commits to the finished header.
func testSeal(h *Header) {
	sh := h.SealHash()
	h.Nonce = binary.BigEndian.Uint64(sh[:8])
}

// modelMine is the miner MineBlock replaced, kept as the reference: filter
// the candidates on the pre-block head state against a scratch header,
// build the survivors into a block (second execution), seal, and insert
// (third execution, full validation).
func modelMine(bc *Blockchain, coinbase types.Address, time uint64, candidates []*Transaction, uncles []*Header) (*Block, error) {
	st, err := bc.HeadState()
	if err != nil {
		return nil, err
	}
	header := &Header{
		Number:   bc.Head().Number() + 1,
		Time:     time,
		GasLimit: bc.Config().GasLimit,
		Coinbase: coinbase,
	}
	var included []*Transaction
	gasPool := header.GasLimit
	for _, tx := range candidates {
		_, used, err := bc.Processor().ApplyTransaction(tx, st, header, gasPool)
		if err != nil {
			continue
		}
		gasPool -= used
		included = append(included, tx)
	}
	block, err := bc.BuildBlockWithUncles(coinbase, time, included, uncles)
	if err != nil {
		return nil, err
	}
	testSeal(block.Header)
	if err := bc.InsertBlock(block); err != nil {
		return nil, err
	}
	return block, nil
}

// mineUsers funds n deterministic senders for the mining tests.
func mineUsers(n int) ([]types.Address, *Genesis) {
	users := make([]types.Address, n)
	gen := testGenesis()
	for i := range users {
		users[i] = types.BytesToAddress([]byte{0xc0, byte(i >> 8), byte(i)})
		gen.Alloc[users[i]] = new(big.Int).Mul(big.NewInt(10), Ether)
	}
	return users, gen
}

func sameStore(t *testing.T, round int, a, b *db.MemDB) {
	t.Helper()
	if !maps.EqualFunc(cloneMemDB(t, a), cloneMemDB(t, b), bytes.Equal) {
		t.Fatalf("round %d: the stores differ (%d vs %d keys)", round, a.Len(), b.Len())
	}
}

// TestMineBlockMatchesBuildInsert mines the same random candidate lists
// once through MineBlock and once through the three-pass model, and
// requires the two chains to stay identical down to every stored byte.
func TestMineBlockMatchesBuildInsert(t *testing.T) {
	users, gen := mineUsers(12)
	ghost := types.HexToAddress("0x6057") // unfunded
	uncleMiner := types.HexToAddress("0x07c1e")
	newChain := func() (*Blockchain, *db.MemDB) {
		cfg := MainnetLikeConfig()
		cfg.GasLimit = 150_000 // seven plain transfers exhaust the pool
		kv := db.NewMemDB()
		bc, err := NewBlockchainWithDB(cfg, gen, kv)
		if err != nil {
			t.Fatal(err)
		}
		return bc, kv
	}
	mined, minedKV := newChain()
	model, modelKV := newChain()

	r := rand.New(rand.NewSource(14))
	nonces := make(map[types.Address]uint64)
	initCode := []byte{0x60, 0x01, 0x60, 0x00, 0x52, 0x60, 0x01, 0x60, 0x1f, 0xf3}
	sawSkip, sawPool, sawCreate, sawUncle := false, false, false, false
	for round := 0; round < 40; round++ {
		// A lighter sibling of the head every few rounds: next round's uncle.
		if round%5 == 1 {
			parent, _ := mined.GetBlock(mined.Head().Header.ParentHash)
			for _, bc := range []*Blockchain{mined, model} {
				st, err := bc.StateAt(parent.Hash())
				if err != nil {
					t.Fatal(err)
				}
				st.AddBalance(uncleMiner, bc.Config().BlockReward)
				root, err := st.Commit()
				if err != nil {
					t.Fatal(err)
				}
				tm := parent.Header.Time + 40
				sib := &Block{Header: &Header{
					ParentHash: parent.Hash(), Number: parent.Number() + 1, Time: tm,
					Difficulty: CalcDifficulty(bc.Config(), tm, parent.Header),
					GasLimit:   parent.Header.GasLimit, Coinbase: uncleMiner, StateRoot: root,
					TxRoot: TxRoot(nil), ReceiptRoot: ReceiptRoot(nil), UncleHash: EmptyUncleHash,
				}}
				if err := bc.InsertBlock(sib); err != nil {
					t.Fatalf("round %d: sibling: %v", round, err)
				}
			}
		}
		uncles := mined.CollectUncles(mined.Head().Hash())
		sawUncle = sawUncle || len(uncles) > 0

		var cands []*Transaction
		for i, n := 0, r.Intn(10); i < n; i++ {
			from := users[r.Intn(len(users))]
			to := users[r.Intn(len(users))]
			switch r.Intn(8) {
			case 0: // stale nonce
				cands = append(cands, transfer(nonces[from]-min(nonces[from], 1), from, to, 7, 0))
			case 1: // nonce gap
				cands = append(cands, transfer(nonces[from]+3, from, to, 7, 0))
			case 2: // unfunded sender
				cands = append(cands, transfer(0, ghost, to, 7, 0))
			case 3: // contract creation
				cands = append(cands, NewTransaction(nonces[from], nil, nil, 120_000, big.NewInt(1), initCode).Sign(from, 0))
				nonces[from]++
			default:
				cands = append(cands, transfer(nonces[from], from, to, int64(1+r.Intn(1000)), 0))
				nonces[from]++
			}
		}
		tm := mined.Head().Header.Time + uint64(r.Intn(30)) // 0 exercises the timestamp bump
		coinbase := users[r.Intn(len(users))]

		got, err := mined.MineBlock(coinbase, tm, cands, uncles, testSeal)
		if err != nil {
			t.Fatalf("round %d: MineBlock: %v", round, err)
		}
		want, err := modelMine(model, coinbase, tm, cands, uncles)
		if err != nil {
			t.Fatalf("round %d: model: %v", round, err)
		}
		if len(got.Txs) != len(want.Txs) {
			t.Fatalf("round %d: included %d txs, model %d", round, len(got.Txs), len(want.Txs))
		}
		for i := range got.Txs {
			if got.Txs[i] != want.Txs[i] {
				t.Fatalf("round %d: included tx %d differs", round, i)
			}
		}
		if got.Hash() != want.Hash() || got.Header.StateRoot != want.Header.StateRoot {
			t.Fatalf("round %d: block %s root %s, model %s root %s", round, got.Hash(), got.Header.StateRoot, want.Hash(), want.Header.StateRoot)
		}
		if mined.Head().Hash() != got.Hash() {
			t.Fatalf("round %d: mined block did not become head", round)
		}
		tdGot, _ := mined.TD(got.Hash())
		tdWant, _ := model.TD(want.Hash())
		if tdGot.Cmp(tdWant) != 0 {
			t.Fatalf("round %d: TD %v, model %v", round, tdGot, tdWant)
		}
		recGot, _, _ := mined.Store().Receipts(got.Hash())
		recWant, _, _ := model.Store().Receipts(want.Hash())
		if len(recGot) != len(recWant) {
			t.Fatalf("round %d: %d receipts, model %d", round, len(recGot), len(recWant))
		}
		for i := range recGot {
			if !bytes.Equal(recGot[i].Encode(), recWant[i].Encode()) {
				t.Fatalf("round %d: receipt %d differs", round, i)
			}
		}
		sameStore(t, round, minedKV, modelKV)

		// Resynchronise the generator's nonces with what was mined.
		st, err := mined.HeadState()
		if err != nil {
			t.Fatal(err)
		}
		var gasWanted uint64
		for _, tx := range cands {
			gasWanted += tx.GasLimit
			sawCreate = sawCreate || tx.IsContractCreation()
		}
		sawSkip = sawSkip || len(got.Txs) < len(cands)
		sawPool = sawPool || gasWanted > got.Header.GasLimit
		for _, u := range users {
			nonces[u] = st.GetNonce(u)
		}
	}
	if !sawSkip || !sawPool || !sawCreate || !sawUncle {
		t.Fatalf("generator coverage: skip=%v pool=%v create=%v uncle=%v", sawSkip, sawPool, sawCreate, sawUncle)
	}
}

// TestMineBlockDAOForkDropsDrainedSender: at the fork block the irregular
// state change runs before the candidates, so a transaction from a drained
// account is skipped on the supporting chain and included on the classic
// one. The model filtered on the pre-fork state and then failed to build.
func TestMineBlockDAOForkDropsDrainedSender(t *testing.T) {
	gen := testGenesis()
	spend := func() *Transaction { return transfer(0, dao, bob, 1_000_000, 0) }

	eth, err := NewBlockchain(ETHConfig(1, []types.Address{dao}, refund), gen)
	if err != nil {
		t.Fatal(err)
	}
	tm := eth.Head().Header.Time + 14
	blk, err := eth.MineBlock(pool1, tm, []*Transaction{spend(), transfer(0, alice, bob, 5, 0)}, nil, testSeal)
	if err != nil {
		t.Fatalf("supporting chain: MineBlock at the fork block: %v", err)
	}
	if len(blk.Txs) != 1 || blk.Txs[0].From != alice {
		t.Fatalf("supporting chain included %d txs, want only alice's", len(blk.Txs))
	}
	if string(blk.Header.Extra) != string(DAOForkExtra) {
		t.Error("fork block lost the dao-hard-fork marker")
	}
	st, err := eth.HeadState()
	if err != nil {
		t.Fatal(err)
	}
	if st.GetBalance(dao).Sign() != 0 || st.GetBalance(refund).Cmp(gen.Alloc[dao]) != 0 {
		t.Error("supporting chain did not move the drained balance to the refund contract")
	}

	etc, err := NewBlockchain(ETCConfig(1), gen)
	if err != nil {
		t.Fatal(err)
	}
	blk, err = etc.MineBlock(pool1, tm, []*Transaction{spend()}, nil, testSeal)
	if err != nil {
		t.Fatalf("classic chain: %v", err)
	}
	if len(blk.Txs) != 1 {
		t.Fatal("classic chain should include the DAO account's transaction")
	}

	// The bug this replaces: the three-pass miner aborted here.
	eth2, err := NewBlockchain(ETHConfig(1, []types.Address{dao}, refund), gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := modelMine(eth2, pool1, tm, []*Transaction{spend()}, nil); err == nil {
		t.Error("model miner no longer fails on a drained sender; drop this assertion with the model")
	}
}

// TestMineBlockValidatesUncles: the uncle list is the one caller-supplied
// input execution does not check, so MineBlock runs the inclusion rules.
func TestMineBlockValidatesUncles(t *testing.T) {
	bc, uncleBlock := buildUncleScenario(t)
	uncles := []*Header{uncleBlock.Header}
	if _, err := bc.MineBlock(pool1, bc.Head().Header.Time+14, nil, uncles, testSeal); err != nil {
		t.Fatalf("eligible uncle: %v", err)
	}
	head := bc.Head()
	if _, err := bc.MineBlock(pool1, head.Header.Time+14, nil, uncles, testSeal); !errors.Is(err, ErrInvalidBody) {
		t.Fatalf("uncle included twice: err = %v, want ErrInvalidBody", err)
	}
	if bc.Head() != head {
		t.Error("a rejected block moved the head")
	}
}

// mineDense mines blocks×perBlock transfers through MineBlock over kv.
func mineDense(t testing.TB, kv db.KV, blocks, perBlock int) *Blockchain {
	t.Helper()
	users, gen := mineUsers(64)
	bc, err := NewBlockchainWithDB(MainnetLikeConfig(), gen, kv)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	nonces := make(map[types.Address]uint64)
	for b := 0; b < blocks; b++ {
		var cands []*Transaction
		for i := 0; i < perBlock; i++ {
			from, to := users[r.Intn(len(users))], users[r.Intn(len(users))]
			cands = append(cands, transfer(nonces[from], from, to, int64(1+r.Intn(1000)), 0))
			nonces[from]++
		}
		blk, err := bc.MineBlock(pool1, bc.Head().Header.Time+14, cands, nil, testSeal)
		if err != nil {
			t.Fatal(err)
		}
		if len(blk.Txs) != perBlock {
			t.Fatalf("block %d included %d of %d", b, len(blk.Txs), perBlock)
		}
	}
	return bc
}

// TestMinedChainReimports: blocks MineBlock persisted without re-validation
// must pass InsertBlock's full validation on a replica.
func TestMinedChainReimports(t *testing.T) {
	src := mineDense(t, db.NewMemDB(), 60, 6)
	var buf bytes.Buffer
	if err := src.WriteChain(&buf); err != nil {
		t.Fatal(err)
	}
	_, gen := mineUsers(64)
	dst, err := NewBlockchain(MainnetLikeConfig(), gen)
	if err != nil {
		t.Fatal(err)
	}
	n, err := dst.ImportChain(&buf)
	if err != nil {
		t.Fatalf("import of a mined chain: %v", err)
	}
	if n != 60 || dst.Head().Hash() != src.Head().Hash() || dst.Head().Header.StateRoot != src.Head().Header.StateRoot {
		t.Fatalf("imported %d blocks to head %s, source head %s", n, dst.Head().Hash(), src.Head().Hash())
	}
}

// TestMineBlockReadBudget pins the store reads one mined block costs, the
// way the AllocsPerRun guards pin allocations: MineBlock executes on the
// state its parent left behind and reads only the trie paths no earlier
// block has touched. A parent state opened cold shows up here as 25.1, the
// three-pass model as 75.4.
func TestMineBlockReadBudget(t *testing.T) {
	const blocks, perBlock = 40, 6
	const ceiling = 6 // measured 2.2 reads/block
	kv := db.NewMemDB()
	bc := mineDense(t, kv, blocks, perBlock)
	got := float64(bc.StorageStats().Reads) / blocks
	t.Logf("%.1f reads per mined block", got)
	if got > ceiling {
		t.Fatalf("%.1f store reads per mined block, ceiling %d: is the parent state opened cold, or a block executed more than once?", got, ceiling)
	}
}
