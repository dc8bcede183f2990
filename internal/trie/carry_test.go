package trie

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/keccak"
	"forkwatch/internal/types"
)

// A trie carried across commits must be indistinguishable, to the store,
// from one reopened at the committed root before every round: same roots
// and the same Puts — keys, values and order. These tests pin the write
// set, not just the root; bench/expected.json pins archive bytes on it.

// putLog records every write that reaches a store, in order.
type putLog []string

func (l *putLog) add(key, value []byte, del bool) {
	*l = append(*l, fmt.Sprintf("%x=%x del=%v", key, value, del))
}

// loggedKV is a store that records its writes in log: a batch's
// operations in queue order once it is written.
type loggedKV struct {
	db.KV
	log *putLog
}

func loggedMemDB(log *putLog) loggedKV { return loggedKV{KV: db.NewMemDB(), log: log} }

func (l loggedKV) NewBatch() db.Batch { return &loggedBatch{Batch: l.KV.NewBatch(), log: l.log} }

type loggedBatch struct {
	db.Batch
	log     *putLog
	pending putLog
}

func (b *loggedBatch) Put(key, value []byte) {
	b.pending.add(key, value, false)
	b.Batch.Put(key, value)
}

func (b *loggedBatch) Delete(key []byte) {
	b.pending.add(key, nil, true)
	b.Batch.Delete(key)
}

func (b *loggedBatch) Reset() {
	b.pending = b.pending[:0]
	b.Batch.Reset()
}

func (b *loggedBatch) Write() error {
	if err := b.Batch.Write(); err != nil {
		return err
	}
	*b.log = append(*b.log, b.pending...)
	b.pending = b.pending[:0]
	return nil
}

func commit(t *testing.T, tr *Trie, kv db.KV) types.Hash {
	t.Helper()
	batch := kv.NewBatch()
	root := tr.CommitTo(batch)
	if err := batch.Write(); err != nil {
		t.Fatal(err)
	}
	return root
}

func sameLog(t *testing.T, where string, carried, reopened putLog) {
	t.Helper()
	if len(carried) != len(reopened) {
		t.Fatalf("%s: carried trie put %d nodes, reopened trie %d", where, len(carried), len(reopened))
	}
	for i := range carried {
		if carried[i] != reopened[i] {
			t.Fatalf("%s: put %d differs:\ncarried  %s\nreopened %s", where, i, carried[i], reopened[i])
		}
	}
}

// keyStyle generates the keys and values of one property run.
type keyStyle struct {
	name  string
	key   func(i int) []byte
	value func(r *rand.Rand) []byte
	space int // keys are drawn from [0, space)
}

var keyStyles = []keyStyle{
	{
		// The account trie: hashed 32-byte keys, values well over 32
		// bytes, every node stored under its hash.
		name: "hashed",
		key: func(i int) []byte {
			h := keccak.Sum256([]byte(fmt.Sprintf("account-%d", i)))
			return h[:]
		},
		value: func(r *rand.Rand) []byte {
			v := make([]byte, 40+r.Intn(40))
			r.Read(v)
			return v
		},
		space: 400,
	},
	{
		// Short keys over a tiny alphabet with tiny values: inline
		// nodes, branch values, whole tries under 32 bytes.
		name: "inline",
		key: func(i int) []byte {
			// Every string of 1 to 4 letters, shortest first.
			n, count := 1, 3
			for i >= count {
				i -= count
				n, count = n+1, count*3
			}
			k := make([]byte, n)
			for j := range k {
				k[j], i = byte(i%3), i/3
			}
			return k
		},
		value: func(r *rand.Rand) []byte {
			v := make([]byte, 1+r.Intn(6))
			r.Read(v)
			return v
		},
		space: 3 + 9 + 27 + 81,
	},
}

func TestCarriedTrieWritesWhatAReopenedTrieWrites(t *testing.T) {
	for _, style := range keyStyles {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", style.name, seed), func(t *testing.T) {
				carriedVsReopened(t, style, seed)
			})
		}
	}
}

func carriedVsReopened(t *testing.T, style keyStyle, seed int64) {
	const rounds, opsPerRound = 60, 24
	r := rand.New(rand.NewSource(seed))
	var carriedLog, reopenedLog putLog
	carriedKV, reopenedKV := loggedMemDB(&carriedLog), loggedMemDB(&reopenedLog)

	carried := NewEmpty(carriedKV)
	root := EmptyRoot
	model := map[int][]byte{} // key index -> value
	present := func() (int, bool) {
		if len(model) == 0 {
			return 0, false
		}
		// Deterministic pick: the n-th present index in index order.
		n := r.Intn(len(model))
		for i := 0; i < style.space; i++ {
			if _, ok := model[i]; ok {
				if n == 0 {
					return i, true
				}
				n--
			}
		}
		panic("unreachable")
	}
	absent := func() int {
		for {
			if i := r.Intn(style.space); model[i] == nil {
				return i
			}
		}
	}

	for round := 0; round < rounds; round++ {
		reopened, err := New(root, reopenedKV)
		if err != nil {
			t.Fatalf("round %d: reopening %s: %v", round, root, err)
		}
		both := [2]*Trie{carried, reopened}
		for op := 0; op < opsPerRound; op++ {
			kind := r.Intn(6)
			if round%10 == 9 {
				kind = 3 + r.Intn(2) // a deleting round, to shrink the trie through collapses
			}
			var i int
			var value []byte
			switch kind {
			case 0: // read a present key
				var ok bool
				if i, ok = present(); !ok {
					continue
				}
			case 1: // read an absent key
				if len(model) == style.space {
					continue
				}
				i = absent()
			case 2, 5: // insert or overwrite
				i, value = r.Intn(style.space), style.value(r)
			case 3: // delete a present key
				var ok bool
				if i, ok = present(); !ok {
					continue
				}
			case 4: // delete an absent key
				if len(model) == style.space {
					continue
				}
				i = absent()
			}
			key := style.key(i)
			for _, tr := range both {
				switch kind {
				case 0, 1:
					got, err := tr.Get(key)
					if err != nil {
						t.Fatalf("round %d: Get: %v", round, err)
					}
					if !bytes.Equal(got, model[i]) {
						t.Fatalf("round %d: Get(%x) = %x, want %x", round, key, got, model[i])
					}
				case 2, 5:
					if err := tr.Update(key, value); err != nil {
						t.Fatalf("round %d: Update: %v", round, err)
					}
				case 3, 4:
					if err := tr.Delete(key); err != nil {
						t.Fatalf("round %d: Delete: %v", round, err)
					}
				}
			}
			switch kind {
			case 2, 5:
				model[i] = value
			case 3:
				delete(model, i)
			}
		}

		carriedLog, reopenedLog = carriedLog[:0], reopenedLog[:0]
		root = commit(t, carried, carriedKV)
		if other := commit(t, reopened, reopenedKV); other != root {
			t.Fatalf("round %d: carried root %s, reopened root %s", round, root, other)
		}
		sameLog(t, fmt.Sprintf("round %d", round), carriedLog, reopenedLog)

		// Committing again with nothing in between writes nothing.
		carriedLog = carriedLog[:0]
		if again := commit(t, carried, carriedKV); again != root || len(carriedLog) != 0 {
			t.Fatalf("round %d: idle commit gave root %s (want %s) and put %d nodes", round, again, root, len(carriedLog))
		}
	}

	// What the carried trie wrote is a complete trie: a fresh one opened at
	// the last root over its store reads every key back.
	fresh, err := New(root, carriedKV)
	if err != nil {
		t.Fatalf("reopening the carried trie's store: %v", err)
	}
	for _, tr := range []*Trie{fresh, carried} {
		for i := 0; i < style.space; i++ {
			got, err := tr.Get(style.key(i))
			if err != nil {
				t.Fatalf("final Get(%d): %v", i, err)
			}
			if !bytes.Equal(got, model[i]) {
				t.Fatalf("final Get(%d) = %x, want %x", i, got, model[i])
			}
		}
	}
}

// TestCarriedDeleteCollapsesOntoCleanSibling drives the one delete path
// that resolves a node it was not asked about: removing one of a branch's
// two children folds the branch into its surviving child, which a reopened
// trie reads from the store (and, when it is itself a branch, writes back)
// and a carried trie already holds, untouched.
func TestCarriedDeleteCollapsesOntoCleanSibling(t *testing.T) {
	val := bytes.Repeat([]byte{0xab}, 40)
	for _, tc := range []struct {
		name    string
		sibling [][]byte // keys under the surviving child
	}{
		{"leaf sibling", [][]byte{{0x12, 0x34}}},
		{"branch sibling", [][]byte{{0x12, 0x34}, {0x12, 0x56}, {0x12, 0x78}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var carriedLog, reopenedLog putLog
			carriedKV, reopenedKV := loggedMemDB(&carriedLog), loggedMemDB(&reopenedLog)
			carried, seedTrie := NewEmpty(carriedKV), NewEmpty(reopenedKV)
			doomed := []byte{0x1f, 0xff}
			for _, tr := range []*Trie{carried, seedTrie} {
				for _, k := range append([][]byte{doomed}, tc.sibling...) {
					if err := tr.Update(k, val); err != nil {
						t.Fatal(err)
					}
				}
			}
			root := commit(t, carried, carriedKV)
			if commit(t, seedTrie, reopenedKV) != root {
				t.Fatal("setup roots differ")
			}
			reopened, err := New(root, reopenedKV)
			if err != nil {
				t.Fatal(err)
			}
			carriedLog, reopenedLog = nil, nil
			for _, tr := range []*Trie{carried, reopened} {
				if err := tr.Delete(doomed); err != nil {
					t.Fatal(err)
				}
			}
			if a, b := commit(t, carried, carriedKV), commit(t, reopened, reopenedKV); a != b {
				t.Fatalf("roots after delete: carried %s, reopened %s", a, b)
			}
			if len(reopenedLog) == 0 {
				t.Fatal("the delete wrote nothing: the case does not exercise a collapse")
			}
			sameLog(t, "after collapse", carriedLog, reopenedLog)
		})
	}
}
