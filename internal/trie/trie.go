// Package trie implements the hexary Merkle-Patricia trie that Ethereum
// uses for its state, transaction and receipt roots.
//
// forkwatch needs real state roots for two reasons. First, the ETH/ETC
// partition is *defined* by state divergence from a shared prefix: both
// ledgers commit to their account state per block, and the DAO fork is an
// irregular state change that makes the two roots diverge forever. Second,
// the echo analysis (paper Fig 4) depends on replayed transactions being
// valid or invalid against each chain's *own* state, which the state
// package evaluates on top of this trie.
//
// The node model follows the yellow paper: branch nodes (17 slots), short
// nodes carrying a hex-prefix-compacted key fragment (leaf or extension),
// and hash references for nodes whose RLP encoding is 32 bytes or longer.
// Nodes shorter than 32 bytes embed inline in their parent, as per the
// specification.
package trie

import (
	"bytes"
	"errors"
	"fmt"

	"forkwatch/internal/db"
	"forkwatch/internal/keccak"
	"forkwatch/internal/rlp"
	"forkwatch/internal/types"
)

// ErrMissingNode reports a hash reference that cannot be resolved in the
// backing database (a corrupted or incomplete trie).
var ErrMissingNode = errors.New("trie: missing node")

// Node kinds. fullNode is a 17-slot branch; shortNode is a leaf (value
// child) or extension (branch child) holding a nibble-key fragment;
// hashNode refers to a node stored in the Database; valueNode is a stored
// value.
type node interface{}

type fullNode struct {
	children [17]node
	nodeFlags
}

type shortNode struct {
	key []byte // nibbles, with terminator for leaves
	val node
	nodeFlags
}

// nodeFlags is what lets a committed trie stay resident and be committed
// again cheaply. A clean node stands for the hash reference a reopened trie
// would hold in its place: commit returns its cached hash without
// descending. Any other resident node is touched — one a reopened trie
// would hold resolved, because resolve read it, get walked through it, or
// insert/delete created it — and commit encodes and Puts exactly those, so
// the store sees the same writes whether the trie was carried over from the
// last commit or reopened from its root. Every ancestor of a touched node
// is touched. The zero value is a created node: touched, not yet hashed.
type nodeFlags struct {
	// hash is the node's store key, set by resolve and by commit; nil for
	// a node created since the last commit and for one that embeds inline
	// in its parent. Nodes are never modified in place (get only swaps a
	// child reference for the node it refers to; insert and delete copy),
	// so a cached hash stays valid for the node's lifetime.
	hash hashNode
	// clean is set by commit and cleared by the first touch after it.
	clean bool
}

// touch marks a resident node as due for the next commit.
func touch(n node) {
	if f := flagsOf(n); f != nil {
		f.clean = false
	}
}

type (
	hashNode  []byte
	valueNode []byte
)

// EmptyRoot is the root hash of an empty trie: keccak256(rlp("")).
var EmptyRoot = types.HexToHash("56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421")

// Trie is a mutable Merkle-Patricia trie over a db.KV node store. Nodes
// are content-addressed: the store key is the node's Keccak-256 hash, the
// value its RLP encoding. The zero value is not usable; construct with New.
type Trie struct {
	db   db.KV
	root node
}

// New opens the trie rooted at root inside kv. A zero or EmptyRoot hash
// yields an empty trie. The root node itself is resolved lazily.
func New(root types.Hash, kv db.KV) (*Trie, error) {
	t := &Trie{db: kv}
	if root.IsZero() || root == EmptyRoot {
		return t, nil
	}
	ok, err := kv.Has(root.Bytes())
	if err != nil {
		return nil, fmt.Errorf("trie: probing root %s: %w", root, err)
	}
	if !ok {
		return nil, fmt.Errorf("%w: root %s", ErrMissingNode, root)
	}
	t.root = hashNode(root.Bytes())
	return t, nil
}

// NewEmpty returns an empty trie over kv.
func NewEmpty(kv db.KV) *Trie {
	t, _ := New(types.Hash{}, kv)
	return t
}

// Get returns the value stored under key, or nil when absent.
func (t *Trie) Get(key []byte) ([]byte, error) {
	v, newRoot, err := t.get(t.root, keybytesToHex(key), 0)
	if err != nil {
		return nil, err
	}
	t.root = newRoot
	return v, nil
}

func (t *Trie) get(n node, key []byte, pos int) ([]byte, node, error) {
	switch n := n.(type) {
	case nil:
		return nil, nil, nil
	case valueNode:
		return n, n, nil
	case *shortNode:
		n.clean = false
		if len(key)-pos < len(n.key) || !bytes.Equal(n.key, key[pos:pos+len(n.key)]) {
			return nil, n, nil
		}
		v, newChild, err := t.get(n.val, key, pos+len(n.key))
		if err != nil {
			return nil, n, err
		}
		n.val = newChild
		return v, n, nil
	case *fullNode:
		n.clean = false
		v, newChild, err := t.get(n.children[key[pos]], key, pos+1)
		if err != nil {
			return nil, n, err
		}
		n.children[key[pos]] = newChild
		return v, n, nil
	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			return nil, n, err
		}
		return t.get(resolved, key, pos)
	default:
		panic(fmt.Sprintf("trie: unknown node type %T", n))
	}
}

// Update stores value under key; an empty value deletes the key.
func (t *Trie) Update(key, value []byte) error {
	k := keybytesToHex(key)
	if len(value) == 0 {
		newRoot, _, err := t.delete(t.root, k)
		if err != nil {
			return err
		}
		// A delete leaves the root resolved even when the key was absent,
		// so the next commit writes it: the resident root is marked the
		// same.
		touch(newRoot)
		t.root = newRoot
		return nil
	}
	newRoot, err := t.insert(t.root, k, valueNode(append([]byte(nil), value...)))
	if err != nil {
		return err
	}
	t.root = newRoot
	return nil
}

// Delete removes key from the trie. Deleting an absent key is a no-op.
func (t *Trie) Delete(key []byte) error {
	return t.Update(key, nil)
}

func (t *Trie) insert(n node, key []byte, value node) (node, error) {
	if len(key) == 0 {
		return value, nil
	}
	switch n := n.(type) {
	case nil:
		return &shortNode{key: append([]byte(nil), key...), val: value}, nil

	case *shortNode:
		match := prefixLen(key, n.key)
		if match == len(n.key) {
			child, err := t.insert(n.val, key[match:], value)
			if err != nil {
				return nil, err
			}
			return &shortNode{key: n.key, val: child}, nil
		}
		// Split: branch at the first diverging nibble.
		branch := &fullNode{}
		var err error
		branch.children[n.key[match]], err = t.insert(nil, n.key[match+1:], n.val)
		if err != nil {
			return nil, err
		}
		branch.children[key[match]], err = t.insert(nil, key[match+1:], value)
		if err != nil {
			return nil, err
		}
		if match == 0 {
			return branch, nil
		}
		return &shortNode{key: append([]byte(nil), key[:match]...), val: branch}, nil

	case *fullNode:
		child, err := t.insert(n.children[key[0]], key[1:], value)
		if err != nil {
			return nil, err
		}
		cp := *n
		cp.nodeFlags = nodeFlags{}
		cp.children[key[0]] = child
		return &cp, nil

	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			return nil, err
		}
		return t.insert(resolved, key, value)

	default:
		panic(fmt.Sprintf("trie: unknown node type %T", n))
	}
}

// delete returns the new node and whether the trie changed.
func (t *Trie) delete(n node, key []byte) (node, bool, error) {
	switch n := n.(type) {
	case nil:
		return nil, false, nil

	case *shortNode:
		match := prefixLen(key, n.key)
		if match < len(n.key) {
			return n, false, nil // key not present
		}
		if match == len(key) {
			return nil, true, nil // exact leaf removal
		}
		child, changed, err := t.delete(n.val, key[len(n.key):])
		if err != nil || !changed {
			return n, changed, err
		}
		if child == nil {
			return nil, true, nil
		}
		if sn, ok := child.(*shortNode); ok {
			// Merge consecutive short nodes.
			return &shortNode{key: concat(n.key, sn.key), val: sn.val}, true, nil
		}
		return &shortNode{key: n.key, val: child}, true, nil

	case *fullNode:
		child, changed, err := t.delete(n.children[key[0]], key[1:])
		if err != nil || !changed {
			return n, changed, err
		}
		cp := *n
		cp.nodeFlags = nodeFlags{}
		cp.children[key[0]] = child

		// Count remaining children; collapse when only one remains.
		pos := -1
		count := 0
		for i, c := range cp.children {
			if c != nil {
				count++
				pos = i
			}
		}
		if count > 1 {
			return &cp, true, nil
		}
		if pos == 16 {
			// Only the branch value remains: becomes a terminating
			// short node.
			return &shortNode{key: []byte{16}, val: cp.children[16]}, true, nil
		}
		// One child branch remains: fold it into a short node,
		// resolving through hash references.
		only := cp.children[pos]
		if hn, ok := only.(hashNode); ok {
			resolved, err := t.resolve(hn)
			if err != nil {
				return nil, false, err
			}
			only = resolved
		}
		if sn, ok := only.(*shortNode); ok {
			return &shortNode{key: concat([]byte{byte(pos)}, sn.key), val: sn.val}, true, nil
		}
		// A surviving branch stays in the trie as it was resolved.
		touch(only)
		return &shortNode{key: []byte{byte(pos)}, val: only}, true, nil

	case valueNode:
		return nil, true, nil

	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			return nil, false, err
		}
		return t.delete(resolved, key)

	default:
		panic(fmt.Sprintf("trie: unknown node type %T", n))
	}
}

func (t *Trie) resolve(h hashNode) (node, error) {
	// Nodes are content-addressed, so every read is integrity-checked
	// against its key. A mismatch is re-read a few times first: read-path
	// bit-rot (a flipped bit on the wire or in a failing controller)
	// heals on a re-read, while at-rest corruption does not and surfaces
	// as db.ErrCorrupt.
	const rereads = 3
	var enc []byte
	for attempt := 0; ; attempt++ {
		var ok bool
		var err error
		enc, ok, err = t.db.Get(h)
		if err != nil {
			return nil, fmt.Errorf("trie: reading node %x: %w", []byte(h), err)
		}
		if !ok {
			return nil, fmt.Errorf("%w: %x", ErrMissingNode, []byte(h))
		}
		sum := keccak.Sum256Pooled(enc)
		if bytes.Equal(sum[:], h) {
			break
		}
		if attempt >= rereads {
			return nil, fmt.Errorf("%w: trie node %x fails its content hash", db.ErrCorrupt, []byte(h))
		}
	}
	v, err := rlp.Decode(enc)
	if err != nil {
		return nil, fmt.Errorf("trie: corrupt node %x: %w", []byte(h), err)
	}
	n, err := decodeNode(v)
	if err != nil {
		return nil, err
	}
	*flagsOf(n) = nodeFlags{hash: h}
	return n, nil
}

// Hash computes the root hash of the trie, committing its touched nodes (see
// CommitTo) into the store through one atomic batch. The trie remains
// usable afterwards. A storage error leaves the store unchanged (the batch
// is atomic), the computed root uncommitted and the trie fit only to be
// dropped.
func (t *Trie) Hash() (types.Hash, error) {
	batch := t.db.NewBatch()
	root := t.CommitTo(batch)
	if err := batch.Write(); err != nil {
		return types.Hash{}, fmt.Errorf("trie: committing nodes: %w", err)
	}
	return root, nil
}

// CommitTo computes the root hash, queuing every touched node of 32+
// encoded bytes (see nodeFlags) into the given batch instead of writing the
// store directly, and leaves the trie resident and clean: committing again
// with nothing read or written in between queues nothing. The caller owns
// the batch: nothing is persisted until batch.Write, which lets one batch
// carry several tries (state.DB commits every storage trie, the account
// trie and contract code in a single write). A trie whose batch failed to
// write believes in nodes the store does not hold and must be dropped.
func (t *Trie) CommitTo(batch db.Batch) types.Hash {
	if t.root == nil {
		return EmptyRoot
	}
	ref := t.commit(t.root, batch)
	if h, ok := ref.(hashNode); ok {
		return types.BytesToHash(h)
	}
	// Whole trie encodes under 32 bytes: hash the encoding itself. The
	// root keeps that hash like any stored node; it has no parent to embed
	// in.
	enc := appendNode(make([]byte, 0, nodeSize(ref)), ref)
	return types.BytesToHash(flagsOf(t.root).put(enc, batch))
}

// commit returns the reference form of n (hashNode when the encoding is
// >= 32 bytes, otherwise the node itself) and queues the encodings of
// touched nodes.
func (t *Trie) commit(n node, batch db.Batch) node {
	f := flagsOf(n)
	if f == nil {
		return n // hashNode, valueNode, nil
	}
	if f.clean {
		// Nothing below a clean node is touched.
		if f.hash != nil {
			return f.hash
		}
		// Embeds inline, and so does everything below it: the node is
		// its own collapsed form.
		return n
	}
	var collapsed node
	switch n := n.(type) {
	case *shortNode:
		collapsed = &shortNode{key: n.key, val: t.commit(n.val, batch)}
	case *fullNode:
		cn := &fullNode{}
		for i, c := range n.children {
			if c != nil {
				cn.children[i] = t.commit(c, batch)
			}
		}
		collapsed = cn
	}
	size := nodeSize(collapsed)
	if size < 32 {
		f.clean = true
		return collapsed
	}
	// Encoded directly into an exact-size buffer: the batch aliases the
	// value until Write (and the db cache can retain it past that), so
	// this allocation is owned by the store, never pooled.
	enc := appendNode(make([]byte, 0, size), collapsed)
	return f.put(enc, batch)
}

// put queues enc under the node's hash and marks the node clean. A node
// that was only read still carries the hash it was resolved by; only a
// created one is hashed.
func (f *nodeFlags) put(enc []byte, batch db.Batch) hashNode {
	if f.hash == nil {
		h := keccak.Sum256Pooled(enc)
		f.hash = h[:]
	}
	f.clean = true
	batch.Put(f.hash, enc)
	return f.hash
}

// flagsOf returns the flags of a resident node, nil for the kinds that
// carry none (hashNode, valueNode, nil).
func flagsOf(n node) *nodeFlags {
	switch n := n.(type) {
	case *shortNode:
		return &n.nodeFlags
	case *fullNode:
		return &n.nodeFlags
	}
	return nil
}

// nodeSize returns the exact RLP-encoded length of n — the byte count
// appendNode will emit. Computing the size first lets store allocate the
// final buffer once and skip encoding sub-32-byte nodes entirely (they
// re-encode inline inside their parent).
func nodeSize(n node) int {
	switch n := n.(type) {
	case nil:
		return 1
	case valueNode:
		return rlp.BytesSize(n)
	case hashNode:
		return rlp.BytesSize(n)
	case *shortNode:
		payload := compactSize(n.key) + nodeSize(n.val)
		return rlp.ListSize(payload)
	case *fullNode:
		payload := 0
		for _, c := range n.children {
			payload += nodeSize(c)
		}
		return rlp.ListSize(payload)
	default:
		panic(fmt.Sprintf("trie: unknown node type %T", n))
	}
}

// appendNode appends the RLP encoding of n to dst with no intermediate
// tree — byte-identical to the rlp.Value model (encodeNode in
// trie_test.go, which TestAppendNodeMatchesModel holds it to). Child
// references must already be collapsed (hashNode for >= 32-byte children),
// which commit guarantees.
func appendNode(dst []byte, n node) []byte {
	switch n := n.(type) {
	case nil:
		return append(dst, 0x80)
	case valueNode:
		return rlp.AppendBytes(dst, n)
	case hashNode:
		return rlp.AppendBytes(dst, n)
	case *shortNode:
		payload := compactSize(n.key) + nodeSize(n.val)
		dst = rlp.AppendListHeader(dst, payload)
		dst = appendCompact(dst, n.key)
		return appendNode(dst, n.val)
	case *fullNode:
		payload := 0
		for _, c := range n.children {
			payload += nodeSize(c)
		}
		dst = rlp.AppendListHeader(dst, payload)
		for _, c := range n.children {
			dst = appendNode(dst, c)
		}
		return dst
	default:
		panic(fmt.Sprintf("trie: unknown node type %T", n))
	}
}

// compactSize returns the RLP-encoded length of the hex-prefix compaction
// of the nibble key (the string appendCompact emits, prefix included). The
// one-byte compact form is always just the flag nibble pair, which is at
// most 0x3f and therefore encodes as itself.
func compactSize(hex []byte) int {
	n := len(hex)
	if hasTerm(hex) {
		n--
	}
	kl := n/2 + 1
	if kl == 1 {
		return 1
	}
	return rlp.StringSize(kl)
}

// appendCompact appends the RLP string encoding of the hex-prefix form of
// the nibble key — a flag nibble carrying oddness and leaf/extension
// kind, then the packed nibbles — without materializing the compact
// buffer (hexToCompact in trie_test.go is the model that does).
func appendCompact(dst, hex []byte) []byte {
	first := byte(0)
	if hasTerm(hex) {
		first = 1 << 5
		hex = hex[:len(hex)-1]
	}
	kl := len(hex)/2 + 1
	if len(hex)%2 == 1 {
		first |= 1<<4 | hex[0]
		hex = hex[1:]
	}
	if kl > 1 {
		dst = rlp.AppendStringHeader(dst, kl)
	}
	dst = append(dst, first)
	for i := 0; i < len(hex); i += 2 {
		dst = append(dst, hex[i]<<4|hex[i+1])
	}
	return dst
}

// decodeNode rebuilds a node from its decoded RLP Value.
func decodeNode(v rlp.Value) (node, error) {
	items, err := v.AsList()
	if err != nil {
		return nil, fmt.Errorf("trie: node must be a list: %w", err)
	}
	switch len(items) {
	case 2:
		keyBytes, err := items[0].AsBytes()
		if err != nil {
			return nil, err
		}
		key := compactToHex(keyBytes)
		if hasTerm(key) {
			val, err := items[1].AsBytes()
			if err != nil {
				return nil, err
			}
			return &shortNode{key: key, val: valueNode(val)}, nil
		}
		child, err := decodeRef(items[1])
		if err != nil {
			return nil, err
		}
		return &shortNode{key: key, val: child}, nil
	case 17:
		fn := &fullNode{}
		for i := 0; i < 16; i++ {
			child, err := decodeRef(items[i])
			if err != nil {
				return nil, err
			}
			fn.children[i] = child
		}
		valBytes, err := items[16].AsBytes()
		if err != nil {
			return nil, err
		}
		if len(valBytes) > 0 {
			fn.children[16] = valueNode(valBytes)
		}
		return fn, nil
	default:
		return nil, fmt.Errorf("trie: invalid node arity %d", len(items))
	}
}

// decodeRef interprets a child slot: empty string = nil, 32-byte string =
// hash reference, embedded list = inline node.
func decodeRef(v rlp.Value) (node, error) {
	if v.IsList {
		return decodeNode(v)
	}
	b, _ := v.AsBytes()
	switch len(b) {
	case 0:
		return nil, nil
	case 32:
		return hashNode(append([]byte(nil), b...)), nil
	default:
		return nil, fmt.Errorf("trie: invalid node reference of %d bytes", len(b))
	}
}

// Nibble-key helpers.

// keybytesToHex expands a byte key into nibbles plus the 0x10 terminator.
func keybytesToHex(key []byte) []byte {
	out := make([]byte, len(key)*2+1)
	for i, b := range key {
		out[i*2] = b / 16
		out[i*2+1] = b % 16
	}
	out[len(out)-1] = 16
	return out
}

// compactToHex expands a hex-prefix (compact) key back into nibbles.
func compactToHex(compact []byte) []byte {
	if len(compact) == 0 {
		return nil
	}
	base := make([]byte, 0, len(compact)*2)
	for _, b := range compact {
		base = append(base, b/16, b%16)
	}
	// base[0] is the flag nibble; base[1] is either padding or the first
	// key nibble depending on the odd bit.
	flags := base[0]
	skip := 2 - flags&1
	base = base[skip:]
	if flags&2 != 0 {
		base = append(base, 16)
	}
	return base
}

func hasTerm(hex []byte) bool {
	return len(hex) > 0 && hex[len(hex)-1] == 16
}

func prefixLen(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func concat(a, b []byte) []byte {
	out := make([]byte, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}
