package chain

import (
	"bytes"
	"fmt"
	"math/big"
	"sort"

	"forkwatch/internal/keccak"
	"forkwatch/internal/rlp"
	"forkwatch/internal/types"
)

// Uncle (ommer) blocks: Ethereum pays miners of stale competing blocks a
// partial reward when a later block references them, compensating for
// propagation losses. The ledgers the paper exported contain uncles, and
// pool income (Fig 5's "winner" attribution) includes uncle rewards; the
// paper counts canonical blocks, which the analysis layer mirrors, but the
// substrate supports the real rules.

// MaxUncles bounds uncles per block (2).
const MaxUncles = 2

// MaxUncleDepth is how many generations back an uncle's parent may lie (7:
// the uncle itself is at most 6 blocks older than the including block).
const MaxUncleDepth = 7

// EmptyUncleHash is the hash of an empty uncle list: keccak256(rlp([])).
var EmptyUncleHash = func() types.Hash {
	h := keccak.Sum256(rlp.Encode(rlp.List()))
	return types.BytesToHash(h[:])
}()

// CalcUncleHash commits to an uncle-header list.
func CalcUncleHash(uncles []*Header) types.Hash {
	if len(uncles) == 0 {
		return EmptyUncleHash
	}
	payload := 0
	for _, u := range uncles {
		payload += u.EncodedSize()
	}
	buf := rlp.AppendListHeader(make([]byte, 0, rlp.ListSize(payload)), payload)
	for _, u := range uncles {
		buf = u.appendRLP(buf)
	}
	h := keccak.Sum256(buf)
	return types.BytesToHash(h[:])
}

// validateUncles enforces the inclusion rules for the uncles of a block
// with header h against the chain as known at insertion time. self is the
// block's own hash, which no uncle may be; a block still being mined has
// none yet (zero), and no uncle can be it.
func (bc *Blockchain) validateUncles(h *Header, uncles []*Header, self types.Hash) error {
	if len(uncles) > MaxUncles {
		return fmt.Errorf("%w: %d uncles (max %d)", ErrInvalidBody, len(uncles), MaxUncles)
	}
	if got := CalcUncleHash(uncles); got != h.UncleHash {
		return fmt.Errorf("%w: uncle hash %s, header %s", ErrInvalidBody, got, h.UncleHash)
	}
	if len(uncles) == 0 {
		return nil
	}

	// Collect the ancestor window: the last MaxUncleDepth ancestors and
	// every uncle they already included.
	ancestors := map[types.Hash]bool{}
	included := map[types.Hash]bool{}
	cur := h.ParentHash
	for i := 0; i < MaxUncleDepth; i++ {
		blk, ok := bc.blocks[cur]
		if !ok {
			break
		}
		ancestors[blk.Hash()] = true
		for _, u := range blk.Uncles {
			included[u.Hash()] = true
		}
		if blk.Number() == 0 {
			break
		}
		cur = blk.Header.ParentHash
	}

	seen := map[types.Hash]bool{}
	for i, u := range uncles {
		uh := u.Hash()
		switch {
		case seen[uh]:
			return fmt.Errorf("%w: uncle %d duplicated in block", ErrInvalidBody, i)
		case uh == self:
			return fmt.Errorf("%w: block includes itself as uncle", ErrInvalidBody)
		case ancestors[uh]:
			return fmt.Errorf("%w: uncle %d is an ancestor", ErrInvalidBody, i)
		case included[uh]:
			return fmt.Errorf("%w: uncle %d already included", ErrInvalidBody, i)
		case !ancestors[u.ParentHash]:
			return fmt.Errorf("%w: uncle %d parent %s not a recent ancestor", ErrInvalidBody, i, u.ParentHash)
		}
		seen[uh] = true

		// The uncle header must itself be consensus-valid relative to
		// its parent.
		parent := bc.blocks[u.ParentHash]
		if u.Number != parent.Number()+1 {
			return fmt.Errorf("%w: uncle %d number %d after parent %d", ErrInvalidBody, i, u.Number, parent.Number())
		}
		if u.Time <= parent.Header.Time {
			return fmt.Errorf("%w: uncle %d timestamp not after parent", ErrInvalidBody, i)
		}
		want := CalcDifficulty(bc.cfg, u.Time, parent.Header)
		if u.Difficulty == nil || u.Difficulty.Cmp(want) != 0 {
			return fmt.Errorf("%w: uncle %d difficulty %v, want %v", ErrInvalidBody, i, u.Difficulty, want)
		}
	}
	return nil
}

// uncleRewards credits uncle miners and the including miner, per the
// Ethereum schedule: an uncle at depth d earns (8-d)/8 of the block
// reward; the nephew earns an extra 1/32 per uncle.
func (p *Processor) uncleRewards(blockNum uint64, uncles []*Header, credit func(types.Address, *big.Int)) *big.Int {
	nephewBonus := new(big.Int)
	for _, u := range uncles {
		r := new(big.Int).Add(new(big.Int).SetUint64(u.Number+8), new(big.Int).Neg(new(big.Int).SetUint64(blockNum)))
		r.Mul(r, p.cfg.BlockReward)
		r.Div(r, big.NewInt(8))
		if r.Sign() > 0 {
			credit(u.Coinbase, r)
		}
		nephewBonus.Add(nephewBonus, new(big.Int).Div(p.cfg.BlockReward, big.NewInt(32)))
	}
	return nephewBonus
}

// CollectUncles returns up to MaxUncles known side-chain headers eligible
// for inclusion in a child of `parent` — what a miner's uncle pool would
// offer. The choice is deterministic: the lowest (number, hash) first.
func (bc *Blockchain) CollectUncles(parentHash types.Hash) []*Header {
	bc.mu.RLock()
	defer bc.mu.RUnlock()
	parent, ok := bc.blocks[parentHash]
	if !ok {
		return nil
	}
	ancestors := map[types.Hash]bool{}
	included := map[types.Hash]bool{}
	heights := map[uint64]bool{}
	cur := parentHash
	for i := 0; i < MaxUncleDepth; i++ {
		blk, ok := bc.blocks[cur]
		if !ok {
			break
		}
		ancestors[blk.Hash()] = true
		heights[blk.Number()] = true
		for _, u := range blk.Uncles {
			included[u.Hash()] = true
		}
		if blk.Number() == 0 {
			break
		}
		cur = blk.Header.ParentHash
	}
	var out []*Header
	for h, blk := range bc.blocks {
		if ancestors[h] || included[h] || blk.Number() > parent.Number() || !heights[blk.Number()] {
			continue
		}
		if !ancestors[blk.Header.ParentHash] {
			continue
		}
		out = append(out, blk.Header)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Number != out[j].Number {
			return out[i].Number < out[j].Number
		}
		hi, hj := out[i].Hash(), out[j].Hash()
		return bytes.Compare(hi[:], hj[:]) < 0
	})
	if len(out) > MaxUncles {
		out = out[:MaxUncles]
	}
	return out
}
