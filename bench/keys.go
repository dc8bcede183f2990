package main

import (
	"math/rand"
	"strconv"

	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

// Request kinds. The first six are the cold mix's methods, the rest the
// hot mix's.
const (
	kTxByHash = iota
	kReceipt
	kBalance
	kNonce
	kBlockFull // eth_getBlockByNumber(n, true)
	kDiffWindow
	kBlockNumber
	kBlockHashes // eth_getBlockByNumber(n, false)
	kPoolShares
	numKinds
)

var kindMethod = [numKinds]string{
	kTxByHash:    "eth_getTransactionByHash",
	kReceipt:     "eth_getTransactionReceipt",
	kBalance:     "eth_getBalance",
	kNonce:       "eth_getTransactionCount",
	kBlockFull:   "eth_getBlockByNumber",
	kDiffWindow:  "fork_difficultyWindow",
	kBlockNumber: "eth_blockNumber",
	kBlockHashes: "eth_getBlockByNumber",
	kPoolShares:  "fork_poolShares",
}

// request is one generated JSON-RPC call and what the oracle needs to
// check its answer against the chain directly.
type request struct {
	kind  int
	chain int // index into archiveIndex.chains
	body  []byte
	hash  types.Hash    // kTxByHash, kReceipt
	addr  types.Address // kBalance, kNonce
	from  uint64        // block number, or window start
	to    uint64        // window end
}

// chainIndex is what the key streams draw from for one partition.
type chainIndex struct {
	name   string // partition name; the route is its lowercase
	head   uint64
	txs    []types.Hash
	cumTxs int // running total of txs up to and including this chain
}

// archiveIndex lists every key of a built archive.
type archiveIndex struct {
	chains []chainIndex
	users  int
}

// mix is a traffic mix: a name, a percent share per kind, and how keys
// and routes are drawn.
type mix struct {
	name string
	// weights are percent shares in kind order; they sum to 100.
	weights [numKinds]int
	// uniform spreads keys evenly over the whole archive and picks the
	// route in proportion to each chain's transaction count; otherwise keys
	// sit at the head and every route is equally likely, as in forkload.
	uniform bool
}

// coldMix spreads requests evenly over the whole archive, as a crawler
// like export.FromRPC does: each client walks its own share of every
// chain's transactions, blocks and windows in a seeded random order and
// starts over when it has seen them all; balances and nonces are asked of
// a random user at a random historical block. The walk is longer than the
// 4096-entry response caches, so nearly every request misses them.
var coldMix = mix{
	name:    "cold",
	weights: [numKinds]int{kTxByHash: 30, kReceipt: 25, kBalance: 20, kNonce: 5, kBlockFull: 15, kDiffWindow: 5},
	uniform: true,
}

// hotMix is cmd/forkload's dashboard mix with skewed keys: head polls,
// zipfian recent blocks, recent blocks in full, and the two analysis
// windows over the last 256 blocks.
var hotMix = mix{
	name:    "hot",
	weights: [numKinds]int{kBlockNumber: 40, kBlockHashes: 35, kBlockFull: 15, kPoolShares: 5, kDiffWindow: 5},
}

const (
	analysisWindow = 256  // blocks in a fork_* window, as forkload uses
	hotBlocks      = 1024 // the zipfian draw ranges over the last this many blocks
	zipfS          = 1.1
)

// walk visits one client's share of n keys — those whose index is
// congruent to the client's number — in a seeded random order, again and
// again.
type walk struct {
	order []uint64
	pos   int
}

func newWalk(r *rand.Rand, n uint64, client, clients int) *walk {
	w := &walk{}
	for i := uint64(client); i < n; i += uint64(clients) {
		w.order = append(w.order, i)
	}
	if len(w.order) == 0 && n > 0 { // more clients than keys: share them all
		for i := uint64(0); i < n; i++ {
			w.order = append(w.order, i)
		}
	}
	r.Shuffle(len(w.order), func(i, j int) { w.order[i], w.order[j] = w.order[j], w.order[i] })
	return w
}

func (w *walk) next() uint64 {
	v := w.order[w.pos]
	w.pos = (w.pos + 1) % len(w.order)
	return v
}

// chainWalks are one client's walks over one chain, for the uniform mix.
type chainWalks struct {
	txs, receipts, blocks, windows *walk
}

// keyStream generates one client's requests. Equal seeds give equal
// streams; the code under test only ever sees the generated bodies.
type keyStream struct {
	m     mix
	ix    *archiveIndex
	r     *rand.Rand
	zipf  []*rand.Zipf // per chain, over min(hotBlocks, head+1) blocks
	walks []chainWalks // per chain; uniform mix only
	buf   []byte
}

// windowStarts is how many distinct analysis windows a chain of the given
// height has: starts 1..head-255, or the single window [1, head].
func windowStarts(head uint64) uint64 {
	if head > analysisWindow {
		return head - analysisWindow + 1
	}
	return 1
}

func newKeyStream(m mix, ix *archiveIndex, seed int64, client, clients int) *keyStream {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	ks := &keyStream{m: m, ix: ix, r: r}
	for _, c := range ix.chains {
		span := min(uint64(hotBlocks), c.head+1)
		ks.zipf = append(ks.zipf, rand.NewZipf(r, zipfS, 1, span-1))
		if m.uniform {
			ks.walks = append(ks.walks, chainWalks{
				txs:      newWalk(r, uint64(len(c.txs)), client, clients),
				receipts: newWalk(r, uint64(len(c.txs)), client, clients),
				blocks:   newWalk(r, c.head+1, client, clients),
				windows:  newWalk(r, windowStarts(c.head), client, clients),
			})
		}
	}
	return ks
}

func (ks *keyStream) pickKind() int {
	roll := ks.r.Intn(100)
	for k, w := range ks.m.weights {
		if roll < w {
			return k
		}
		roll -= w
	}
	panic("mix weights do not sum to 100")
}

func (ks *keyStream) pickChain() int {
	chains := ks.ix.chains
	if !ks.m.uniform {
		return ks.r.Intn(len(chains))
	}
	roll := ks.r.Intn(chains[len(chains)-1].cumTxs)
	for i, c := range chains {
		if roll < c.cumTxs {
			return i
		}
	}
	return len(chains) - 1
}

// next generates the next request. The body's bytes are only valid until
// the following call.
func (ks *keyStream) next() request {
	q := request{kind: ks.pickKind(), chain: ks.pickChain()}
	c := &ks.ix.chains[q.chain]
	hot := !ks.m.uniform
	b := append(ks.buf[:0], `{"jsonrpc":"2.0","id":1,"method":"`...)
	b = append(b, kindMethod[q.kind]...)
	b = append(b, `","params":[`...)
	switch q.kind {
	case kTxByHash, kReceipt:
		// pickChain weighs by transaction count, so c holds some.
		w := ks.walks[q.chain].txs
		if q.kind == kReceipt {
			w = ks.walks[q.chain].receipts
		}
		q.hash = c.txs[w.next()]
		b = append(b, '"')
		b = append(b, q.hash.Hex()...)
		b = append(b, '"')
	case kBalance, kNonce:
		q.addr = sim.UserAddress(ks.r.Intn(ks.ix.users))
		q.from = ks.r.Uint64() % (c.head + 1)
		b = append(b, '"')
		b = append(b, q.addr.Hex()...)
		b = append(b, `","0x`...)
		b = strconv.AppendUint(b, q.from, 16)
		b = append(b, '"')
	case kBlockFull:
		// forkload asks for the head block in full; one block's transaction
		// count (0 to 20, by seed) would then set the hot mix's throughput,
		// so the hot mix draws from the last 256 blocks instead.
		n := c.head - ks.r.Uint64()%min(analysisWindow, c.head+1)
		if !hot {
			n = ks.walks[q.chain].blocks.next()
		}
		return ks.blockRequest(q, n, true)
	case kBlockHashes:
		return ks.blockRequest(q, c.head-ks.zipf[q.chain].Uint64(), false)
	case kDiffWindow, kPoolShares:
		// forkload's window is the last 256 blocks; the uniform mix walks
		// every window of the same length.
		q.from, q.to = 1, c.head
		if c.head > analysisWindow {
			q.from = c.head - analysisWindow
			if !hot {
				q.from = 1 + ks.walks[q.chain].windows.next()
				q.to = q.from + analysisWindow - 1
			}
		}
		b = append(b, `"0x`...)
		b = strconv.AppendUint(b, q.from, 16)
		b = append(b, `","0x`...)
		b = strconv.AppendUint(b, q.to, 16)
		b = append(b, '"')
	case kBlockNumber:
	}
	b = append(b, `]}`...)
	ks.buf, q.body = b, b
	return q
}

func (ks *keyStream) blockRequest(q request, n uint64, full bool) request {
	q.from = n
	b := append(ks.buf[:0], `{"jsonrpc":"2.0","id":1,"method":"eth_getBlockByNumber","params":["0x`...)
	b = strconv.AppendUint(b, n, 16)
	if full {
		b = append(b, `",true]}`...)
	} else {
		b = append(b, `",false]}`...)
	}
	ks.buf, q.body = b, b
	return q
}
