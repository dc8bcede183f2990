package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"forkwatch/internal/chain"
)

// modelWindow is the window encoder encodeWindow replaced: points built
// as values and the map marshalled.
func modelWindow(t *testing.T, name string, blocks []*chain.Block) []byte {
	t.Helper()
	type point struct {
		Number     string `json:"number"`
		Timestamp  string `json:"timestamp"`
		Difficulty string `json:"difficulty"`
	}
	out := make([]point, 0, len(blocks))
	for _, blk := range blocks {
		out = append(out, point{
			Number:     encUint(blk.Number()),
			Timestamp:  encUint(blk.Header.Time),
			Difficulty: modelBig(blk.Header.Difficulty),
		})
	}
	return mustMarshal(t, map[string]any{"chain": name, "points": out})
}

// modelBig is the big-quantity encoder without the uint64 fast path.
func modelBig(v *big.Int) string {
	if v == nil || v.Sign() == 0 {
		return "0x0"
	}
	return "0x" + v.Text(16)
}

// TestWindowMatchesModel: the encoded window is byte-identical to the
// marshalled model for difficulties around 2^64, nil and zero, for names
// json.Marshal escapes, and for empty windows.
func TestWindowMatchesModel(t *testing.T) {
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	diffs := []*big.Int{
		nil, new(big.Int), big.NewInt(1), big.NewInt(131072),
		new(big.Int).Sub(two64, big.NewInt(1)), two64, new(big.Int).Add(two64, big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(3), 200),
	}
	var blocks []*chain.Block
	for i, d := range diffs {
		blocks = append(blocks, &chain.Block{Header: &chain.Header{Number: uint64(i) << (8 * (i % 8)), Time: ^uint64(0) >> i, Difficulty: d}})
	}
	for _, name := range []string{"ETH", "", "E<T>& ", "\xff"} {
		for _, window := range [][]*chain.Block{nil, {}, blocks[:1], blocks} {
			if got, want := encodeWindow(name, window), modelWindow(t, name, window); !bytes.Equal(got, want) {
				t.Fatalf("name %q, %d points:\n got %s\nwant %s", name, len(window), got, want)
			}
		}
	}
}

// TestDifficultyWindowMatchesModel: fork_difficultyWindow over a chain
// whose difficulty crosses 2^64 answers the model's bytes for random
// windows, windows clamped to the head and windows past it.
func TestDifficultyWindowMatchesModel(t *testing.T) {
	gen := testGenesis()
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	gen.Difficulty = new(big.Int).Sub(two64, new(big.Int).Lsh(big.NewInt(1), 55))
	bc, err := chain.NewBlockchain(chain.MainnetLikeConfig(), gen)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		// 5 s blocks: each raises difficulty by a 2048th.
		b, err := bc.BuildBlock(pool1, bc.Head().Header.Time+5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := bc.InsertBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if first, last := bc.Genesis().Header.Difficulty, bc.Head().Header.Difficulty; first.Cmp(two64) >= 0 || last.Cmp(two64) <= 0 {
		t.Fatalf("difficulty runs %s..%s, want it to cross 2^64", first, last)
	}
	be := NewBackend("ETH", bc)
	head := bc.Head().Number()
	check := func(from, to uint64) {
		t.Helper()
		params := []json.RawMessage{
			json.RawMessage(fmt.Sprintf(`"0x%x"`, from)),
			json.RawMessage(fmt.Sprintf(`"0x%x"`, to)),
		}
		got, rpcErr := forkDifficultyWindow(context.Background(), be, params)
		if rpcErr != nil {
			t.Fatalf("[%d, %d]: %v", from, to, rpcErr)
		}
		want := modelWindow(t, "ETH", bc.CanonicalBlocks(from, min(to, head)))
		if !bytes.Equal(got.(json.RawMessage), want) {
			t.Fatalf("[%d, %d]:\n got %s\nwant %s", from, to, got, want)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		from := uint64(rng.Intn(int(head) + 1))
		check(from, from+uint64(rng.Intn(int(head)+4)))
	}
	check(0, head)
	check(head, head+1000) // clamped to the head
	check(head+1, head+5)  // past the head: empty
}
