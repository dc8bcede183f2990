package chain

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"testing"

	"forkwatch/internal/types"
)

// TestEmptyUncleHashVector pins the empty uncle hash to Ethereum's actual
// constant — a cross-check of the whole RLP+Keccak stack.
func TestEmptyUncleHashVector(t *testing.T) {
	want := types.HexToHash("0x1dcc4de8dec75d7aab85b567b6ccd41ad312451b948a7413f0a142fd40d49347")
	if EmptyUncleHash != want {
		t.Fatalf("EmptyUncleHash = %s, want %s", EmptyUncleHash, want)
	}
	if CalcUncleHash(nil) != want {
		t.Fatal("CalcUncleHash(nil) should be the empty uncle hash")
	}
}

// buildUncleScenario mines a main chain and one competing sibling at
// height 1 (the uncle candidate).
func buildUncleScenario(t *testing.T) (*Blockchain, *Block) {
	t.Helper()
	bc := newTestChain(t, MainnetLikeConfig())
	genesis := bc.Genesis()

	// Canonical block 1 (faster, heavier).
	main1, err := bc.BuildBlock(pool1, genesis.Header.Time+5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.InsertBlock(main1); err != nil {
		t.Fatal(err)
	}

	// Competing sibling at height 1 by another miner: the uncle.
	uncleBlock := insertSibling(t, bc, types.HexToAddress("0x07c1e"), 20)
	// Fork choice keeps main1 (heavier).
	if bc.Head().Hash() != main1.Hash() {
		t.Fatal("sibling should not win fork choice")
	}
	return bc, uncleBlock
}

// insertSibling inserts an empty block on genesis mined by miner dt
// seconds after it: a slower side block at height 1, an uncle candidate.
func insertSibling(t *testing.T, bc *Blockchain, miner types.Address, dt uint64) *Block {
	t.Helper()
	genesis := bc.Genesis()
	st, err := bc.StateAt(genesis.Hash())
	if err != nil {
		t.Fatal(err)
	}
	st.AddBalance(miner, bc.Config().BlockReward)
	root, err := st.Commit()
	if err != nil {
		t.Fatal(err)
	}
	b := &Block{Header: &Header{
		ParentHash:  genesis.Hash(),
		Number:      1,
		Time:        genesis.Header.Time + dt,
		Difficulty:  CalcDifficulty(bc.Config(), genesis.Header.Time+dt, genesis.Header),
		GasLimit:    bc.Config().GasLimit,
		Coinbase:    miner,
		StateRoot:   root,
		TxRoot:      TxRoot(nil),
		ReceiptRoot: ReceiptRoot(nil),
		UncleHash:   EmptyUncleHash,
	}}
	if err := bc.InsertBlock(b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCollectUnclesDeterministic: with more eligible side blocks than
// MaxUncles, the miner's pick must not depend on map iteration order —
// every call offers the same lowest-(number, hash) pair.
func TestCollectUnclesDeterministic(t *testing.T) {
	bc, first := buildUncleScenario(t)
	siblings := []*Block{first}
	for i := 0; i < 3; i++ {
		siblings = append(siblings, insertSibling(t, bc, types.HexToAddress(fmt.Sprintf("0x07c1e%d", i)), uint64(21+i)))
	}
	sort.Slice(siblings, func(i, j int) bool {
		hi, hj := siblings[i].Hash(), siblings[j].Hash()
		return bytes.Compare(hi[:], hj[:]) < 0
	})
	for call := 0; call < 64; call++ {
		got := bc.CollectUncles(bc.Head().Hash())
		var hashes []types.Hash
		for _, h := range got {
			hashes = append(hashes, h.Hash())
		}
		if len(hashes) != MaxUncles || hashes[0] != siblings[0].Hash() || hashes[1] != siblings[1].Hash() {
			t.Fatalf("call %d: CollectUncles offered %v, want the two lowest hashes %s, %s",
				call, hashes, siblings[0].Hash(), siblings[1].Hash())
		}
	}
}

func TestUncleInclusionAndRewards(t *testing.T) {
	bc, uncleBlock := buildUncleScenario(t)
	uncles := bc.CollectUncles(bc.Head().Hash())
	if len(uncles) != 1 || uncles[0].Hash() != uncleBlock.Hash() {
		t.Fatalf("CollectUncles = %v", uncles)
	}

	b2, err := bc.BuildBlockWithUncles(pool1, bc.Head().Header.Time+14, nil, uncles)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Header.UncleHash == EmptyUncleHash {
		t.Fatal("uncle hash not set")
	}
	if err := bc.InsertBlock(b2); err != nil {
		t.Fatalf("block with uncle rejected: %v", err)
	}

	st, err := bc.HeadState()
	if err != nil {
		t.Fatal(err)
	}
	// Uncle at height 1 included at height 2: reward*(1+8-2)/8 = 7/8 R.
	r := bc.Config().BlockReward
	wantUncle := new(big.Int).Div(new(big.Int).Mul(r, big.NewInt(7)), big.NewInt(8))
	if got := st.GetBalance(uncleBlock.Header.Coinbase); got.Cmp(wantUncle) != 0 {
		t.Errorf("uncle miner got %v, want %v", got, wantUncle)
	}
	// Including miner: 2 block rewards (blocks 1 and 2) + R/32.
	wantPool := new(big.Int).Mul(r, big.NewInt(2))
	wantPool.Add(wantPool, new(big.Int).Div(r, big.NewInt(32)))
	if got := st.GetBalance(pool1); got.Cmp(wantPool) != 0 {
		t.Errorf("including miner got %v, want %v", got, wantPool)
	}

	// Round trip: the block with uncles survives encode/decode.
	dec, err := DecodeBlock(b2.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Uncles) != 1 || dec.Uncles[0].Hash() != uncleBlock.Hash() {
		t.Error("uncles corrupted across encode/decode")
	}
	if dec.Hash() != b2.Hash() {
		t.Error("block hash changed across encode/decode")
	}
}

func TestUncleValidationRejections(t *testing.T) {
	bc, uncleBlock := buildUncleScenario(t)
	head := bc.Head()

	build := func(uncles []*Header) *Block {
		t.Helper()
		b, err := bc.BuildBlockWithUncles(pool1, head.Header.Time+14, nil, uncles)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Ancestor as uncle.
	ancestor := build([]*Header{head.Header})
	if err := bc.InsertBlock(ancestor); !errors.Is(err, ErrInvalidBody) {
		t.Errorf("ancestor uncle: err = %v", err)
	}

	// Duplicated uncle within one block.
	dup := build([]*Header{uncleBlock.Header, uncleBlock.Header})
	if err := bc.InsertBlock(dup); !errors.Is(err, ErrInvalidBody) {
		t.Errorf("duplicate uncle: err = %v", err)
	}

	// Too many uncles.
	three := build([]*Header{uncleBlock.Header, head.Header, bc.Genesis().Header})
	if err := bc.InsertBlock(three); !errors.Is(err, ErrInvalidBody) {
		t.Errorf("three uncles: err = %v", err)
	}

	// Mismatched uncle hash (tampered after build).
	good := build([]*Header{uncleBlock.Header})
	tampered := &Block{Header: good.Header.Copy(), Txs: good.Txs}
	// Header still commits to one uncle, but the body has none.
	if err := bc.InsertBlock(tampered); !errors.Is(err, ErrInvalidBody) {
		t.Errorf("uncle hash mismatch: err = %v", err)
	}

	// The well-formed one is accepted.
	if err := bc.InsertBlock(good); err != nil {
		t.Fatalf("valid uncle rejected: %v", err)
	}

	// Double inclusion across blocks: a later block cannot include the
	// same uncle again.
	again, err := bc.BuildBlockWithUncles(pool1, bc.Head().Header.Time+14, nil, []*Header{uncleBlock.Header})
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.InsertBlock(again); !errors.Is(err, ErrInvalidBody) {
		t.Errorf("re-included uncle: err = %v", err)
	}
	// And CollectUncles no longer offers it.
	if left := bc.CollectUncles(bc.Head().Hash()); len(left) != 0 {
		t.Errorf("CollectUncles still offers included uncle: %v", left)
	}
}

func TestUncleTooDeep(t *testing.T) {
	bc, uncleBlock := buildUncleScenario(t)
	// Mine past the depth window.
	for i := 0; i < MaxUncleDepth; i++ {
		mine(t, bc, 14)
	}
	deep, err := bc.BuildBlockWithUncles(pool1, bc.Head().Header.Time+14, nil, []*Header{uncleBlock.Header})
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.InsertBlock(deep); !errors.Is(err, ErrInvalidBody) {
		t.Errorf("too-deep uncle: err = %v", err)
	}
	if left := bc.CollectUncles(bc.Head().Hash()); len(left) != 0 {
		t.Errorf("CollectUncles offers too-deep uncle: %v", left)
	}
}
