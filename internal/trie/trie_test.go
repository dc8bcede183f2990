package trie

import (
	"forkwatch/internal/db"
	"forkwatch/internal/rlp"

	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"forkwatch/internal/types"
)

func newTestTrie(t *testing.T) *Trie {
	t.Helper()
	return NewEmpty(db.NewMemDB())
}

func mustUpdate(t *testing.T, tr *Trie, key, val string) {
	t.Helper()
	if err := tr.Update([]byte(key), []byte(val)); err != nil {
		t.Fatalf("Update(%q): %v", key, err)
	}
}

func mustGet(t *testing.T, tr *Trie, key string) []byte {
	t.Helper()
	v, err := tr.Get([]byte(key))
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	return v
}

// mustHash commits the trie and returns its root, failing the test on a
// storage error (fault-free stores never produce one).
func mustHash(tb testing.TB, tr *Trie) types.Hash {
	tb.Helper()
	root, err := tr.Hash()
	if err != nil {
		tb.Fatal(err)
	}
	return root
}

func TestEmptyTrieRoot(t *testing.T) {
	tr := newTestTrie(t)
	if got := mustHash(t, tr); got != EmptyRoot {
		t.Errorf("empty root = %s, want %s", got, EmptyRoot)
	}
}

// TestKnownRoot checks the canonical three-key vector used across
// Ethereum implementations.
func TestKnownRoot(t *testing.T) {
	tr := newTestTrie(t)
	mustUpdate(t, tr, "doe", "reindeer")
	mustUpdate(t, tr, "dog", "puppy")
	mustUpdate(t, tr, "dogglesworth", "cat")
	want := types.HexToHash("0x8aad789dff2f538bca5d8ea56e8abe10f4c7ba3a5dea95fea4cd6e7c3a1168d3")
	if got := mustHash(t, tr); got != want {
		t.Errorf("root = %s, want %s", got, want)
	}
}

func TestGetUpdateDelete(t *testing.T) {
	tr := newTestTrie(t)
	if v := mustGet(t, tr, "missing"); v != nil {
		t.Errorf("missing key returned %q", v)
	}
	mustUpdate(t, tr, "alpha", "1")
	mustUpdate(t, tr, "alphabet", "2")
	mustUpdate(t, tr, "beta", "3")
	if got := mustGet(t, tr, "alpha"); string(got) != "1" {
		t.Errorf("alpha = %q", got)
	}
	if got := mustGet(t, tr, "alphabet"); string(got) != "2" {
		t.Errorf("alphabet = %q", got)
	}
	mustUpdate(t, tr, "alpha", "overwritten")
	if got := mustGet(t, tr, "alpha"); string(got) != "overwritten" {
		t.Errorf("alpha after overwrite = %q", got)
	}
	if err := tr.Delete([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if v := mustGet(t, tr, "alpha"); v != nil {
		t.Errorf("deleted key still present: %q", v)
	}
	if got := mustGet(t, tr, "alphabet"); string(got) != "2" {
		t.Errorf("sibling lost after delete: %q", got)
	}
}

func TestDeleteRestoresEmptyRoot(t *testing.T) {
	tr := newTestTrie(t)
	keys := []string{"doe", "dog", "dogglesworth", "horse", "x"}
	for i, k := range keys {
		mustUpdate(t, tr, k, fmt.Sprintf("value-%d", i))
	}
	for _, k := range keys {
		if err := tr.Delete([]byte(k)); err != nil {
			t.Fatalf("Delete(%q): %v", k, err)
		}
	}
	if got := mustHash(t, tr); got != EmptyRoot {
		t.Errorf("root after deleting all keys = %s, want empty root", got)
	}
}

func TestDeleteAbsentKeyIsNoOp(t *testing.T) {
	tr := newTestTrie(t)
	mustUpdate(t, tr, "dog", "puppy")
	before := mustHash(t, tr)
	if err := tr.Delete([]byte("cat")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete([]byte("do")); err != nil { // prefix of existing key
		t.Fatal(err)
	}
	if err := tr.Delete([]byte("dogs")); err != nil { // extension of existing key
		t.Fatal(err)
	}
	if got := mustHash(t, tr); got != before {
		t.Errorf("root changed by absent-key deletes: %s vs %s", got, before)
	}
}

func TestOrderIndependence(t *testing.T) {
	pairs := map[string]string{
		"doe": "reindeer", "dog": "puppy", "dogglesworth": "cat",
		"horse": "stallion", "shaman": "horse", "do": "verb",
		"ether": "wookiedoo", "": "emptykeyvalue",
	}
	var roots []types.Hash
	for seed := 0; seed < 5; seed++ {
		tr := newTestTrie(t)
		keys := make([]string, 0, len(pairs))
		for k := range pairs {
			keys = append(keys, k)
		}
		r := rand.New(rand.NewSource(int64(seed)))
		r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, k := range keys {
			mustUpdate(t, tr, k, pairs[k])
		}
		roots = append(roots, mustHash(t, tr))
	}
	for i := 1; i < len(roots); i++ {
		if roots[i] != roots[0] {
			t.Errorf("insertion order changed root: %s vs %s", roots[i], roots[0])
		}
	}
}

func TestReopenFromCommittedRoot(t *testing.T) {
	store := db.NewMemDB()
	tr := NewEmpty(store)
	pairs := map[string]string{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("account-%03d", i)
		v := fmt.Sprintf("balance-%d", i*i)
		pairs[k] = v
		if err := tr.Update([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	root := mustHash(t, tr)

	reopened, err := New(root, store)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for k, v := range pairs {
		got, err := reopened.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q) after reopen: %v", k, err)
		}
		if string(got) != v {
			t.Errorf("Get(%q) = %q, want %q", k, got, v)
		}
	}
	// Mutating the reopened trie must produce the same root as mutating
	// the original.
	if err := reopened.Update([]byte("account-050"), []byte("changed")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Update([]byte("account-050"), []byte("changed")); err != nil {
		t.Fatal(err)
	}
	if mustHash(t, reopened) != mustHash(t, tr) {
		t.Error("reopened trie diverged from original after identical update")
	}
}

func TestMissingRoot(t *testing.T) {
	if _, err := New(types.HexToHash("0x1234"), db.NewMemDB()); err == nil {
		t.Error("expected error opening trie at unknown root")
	}
}

// TestModelConformance drives the trie with random operations against a
// plain map model and compares contents and roots across two
// differently-ordered replays.
func TestModelConformance(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tr := newTestTrie(t)
	model := map[string]string{}

	randKey := func() string {
		// Small keyspace to force collisions, splits and deletes of
		// shared prefixes.
		return fmt.Sprintf("k%d", r.Intn(200))
	}
	for step := 0; step < 5000; step++ {
		k := randKey()
		switch r.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("v%d", r.Intn(1_000_000))
			model[k] = v
			if err := tr.Update([]byte(k), []byte(v)); err != nil {
				t.Fatalf("step %d: Update: %v", step, err)
			}
		case 2:
			delete(model, k)
			if err := tr.Delete([]byte(k)); err != nil {
				t.Fatalf("step %d: Delete: %v", step, err)
			}
		}
		if step%500 == 0 {
			tr.Hash() // interleave commits with mutation
		}
	}
	for k, v := range model {
		got, err := tr.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if string(got) != v {
			t.Errorf("Get(%q) = %q, want %q", k, got, v)
		}
	}
	// Rebuild from the model in map order; roots must match.
	rebuilt := newTestTrie(t)
	for k, v := range model {
		if err := rebuilt.Update([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if mustHash(t, rebuilt) != mustHash(t, tr) {
		t.Error("rebuilt trie root differs from mutated trie root")
	}
}

func TestHexCompactRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		n := r.Intn(20)
		hexKey := make([]byte, n)
		for j := range hexKey {
			hexKey[j] = byte(r.Intn(16))
		}
		if r.Intn(2) == 0 {
			hexKey = append(hexKey, 16)
		}
		got := compactToHex(hexToCompact(hexKey))
		if !bytes.Equal(got, hexKey) && !(len(hexKey) == 0 && len(got) == 0) {
			t.Fatalf("round trip failed: %v -> %v", hexKey, got)
		}
	}
}

func TestLargeValues(t *testing.T) {
	tr := newTestTrie(t)
	big := bytes.Repeat([]byte{0xaa}, 1000)
	mustUpdate(t, tr, "big", string(big))
	if got := mustGet(t, tr, "big"); !bytes.Equal(got, big) {
		t.Errorf("large value corrupted: %d bytes", len(got))
	}
	tr.Hash()
	if got := mustGet(t, tr, "big"); !bytes.Equal(got, big) {
		t.Errorf("large value corrupted after commit: %d bytes", len(got))
	}
}

func BenchmarkTrieInsert1k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := NewEmpty(db.NewMemDB())
		for j := 0; j < 1000; j++ {
			key := fmt.Sprintf("account-%04d", j)
			if err := tr.Update([]byte(key), []byte("value")); err != nil {
				b.Fatal(err)
			}
		}
		tr.Hash()
	}
}

// TestAppendNodeMatchesModel pins the append-style commit encoder to the
// auditable rlp.Value model (encodeNode): for every node shape reachable
// by committing a randomized trie, appendNode must emit exactly the bytes
// of rlp.Encode(encodeNode(n)) and nodeSize must predict their length.
// The walk re-resolves every stored node so branch, extension, leaf and
// embedded-child shapes are all exercised.
func TestAppendNodeMatchesModel(t *testing.T) {
	kv := db.NewMemDB()
	tr := NewEmpty(kv)
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 600; i++ {
		key := make([]byte, 1+r.Intn(6))
		r.Read(key)
		val := make([]byte, 1+r.Intn(60))
		r.Read(val)
		if err := tr.Update(key, val); err != nil {
			t.Fatal(err)
		}
	}
	root := mustHash(t, tr)

	var walk func(n node)
	checked := 0
	walk = func(n node) {
		want := rlp.Encode(encodeNode(n))
		got := appendNode(nil, n)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendNode mismatch for %T:\n got %x\nwant %x", n, got, want)
		}
		if size := nodeSize(n); size != len(want) {
			t.Fatalf("nodeSize(%T) = %d, want %d", n, size, len(want))
		}
		checked++
		switch n := n.(type) {
		case *shortNode:
			walk(n.val)
		case *fullNode:
			for _, c := range n.children {
				if c != nil {
					walk(c)
				}
			}
		case hashNode:
			resolved, err := tr.resolve(n)
			if err != nil {
				t.Fatal(err)
			}
			walk(resolved)
		}
	}
	walk(hashNode(root.Bytes()))
	if checked < 100 {
		t.Fatalf("walk only reached %d nodes; trie too shallow to be a meaningful check", checked)
	}
}

// The tree model of node encoding: the reference appendNode/nodeSize and
// appendCompact are held equal to by TestAppendNodeMatchesModel.

// encodeNode maps a node to its RLP Value. Child references become either
// the 32-byte hash string or the embedded sub-encoding.
func encodeNode(n node) rlp.Value {
	switch n := n.(type) {
	case nil:
		return rlp.Bytes(nil)
	case valueNode:
		return rlp.Bytes(n)
	case hashNode:
		return rlp.Bytes(n)
	case *shortNode:
		return rlp.List(rlp.Bytes(hexToCompact(n.key)), encodeNode(n.val))
	case *fullNode:
		items := make([]rlp.Value, 17)
		for i, c := range n.children {
			items[i] = encodeNode(c)
		}
		return rlp.List(items...)
	default:
		panic(fmt.Sprintf("trie: unknown node type %T", n))
	}
}

// hexToCompact applies hex-prefix encoding: flag nibble carrying oddness
// and leaf/extension kind, then packed nibbles.
func hexToCompact(hex []byte) []byte {
	terminator := byte(0)
	if hasTerm(hex) {
		terminator = 1
		hex = hex[:len(hex)-1]
	}
	buf := make([]byte, len(hex)/2+1)
	buf[0] = terminator << 5
	if len(hex)%2 == 1 {
		buf[0] |= 1 << 4
		buf[0] |= hex[0]
		hex = hex[1:]
	}
	for i := 0; i < len(hex); i += 2 {
		buf[i/2+1] = hex[i]<<4 | hex[i+1]
	}
	return buf
}
