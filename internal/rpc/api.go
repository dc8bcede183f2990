package rpc

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"strconv"
	"strings"

	"forkwatch/internal/chain"
	"forkwatch/internal/db"
	"forkwatch/internal/types"
)

// Backend serves one chain's archive API over its Blockchain (and, for
// the cross-chain fork_* joins, the peer backends of the other
// partitions). All reads go through the Blockchain's own locks and the
// KV-backed Store; storage failures surface as *Error with
// ErrCodeStorage.
type Backend struct {
	name  string
	bc    *chain.Blockchain
	peers []*Backend
	live  *LiveSource
	stale StalenessFunc
}

// NewBackend wraps one chain for serving. name is the chain label used
// in routes and metrics.
func NewBackend(name string, bc *chain.Blockchain) *Backend {
	return &Backend{name: name, bc: bc}
}

// AddPeer links another partition's backend, enabling the cross-chain
// join behind fork_echoCandidates. Call for every ordered pair; echo
// responses join against peers in registration order.
func (b *Backend) AddPeer(peer *Backend) { b.peers = append(b.peers, peer) }

// StalenessFunc reports how far one route's chain trails the head it
// follows and whether that lag crosses the degraded line. The serving
// path samples it per response: degraded routes tag every response with
// the lag (the response's "staleness" member) and flip the /readyz verdict.
type StalenessFunc func() (lag uint64, degraded bool)

// SetStaleness installs the route's staleness source (replicas wire
// their sync-lag tracker here). Like SetLive, call it before the server
// serves the route. Routes without one are never degraded by lag.
func (b *Backend) SetStaleness(fn StalenessFunc) { b.stale = fn }

// Name returns the chain label.
func (b *Backend) Name() string { return b.name }

// Chain returns the served blockchain.
func (b *Backend) Chain() *chain.Blockchain { return b.bc }

// Generation identifies the current head for cache tagging: its hash.
// Any head change — an advance, or a reorg to a sibling at the same
// height or to a heavier lower head — changes it, so a response cached
// under an old generation can never be served after the head moves.
func (b *Backend) Generation() types.Hash { return b.bc.Head().Hash() }

// maxWindow bounds the fork_* range scans: an archive query over more
// canonical blocks than this is rejected with InvalidParams rather than
// holding a worker for an unbounded walk.
const maxWindow = 100_000

// method is one RPC method implementation.
type method func(ctx context.Context, b *Backend, params []json.RawMessage) (any, *Error)

// methodSpec is one method's entry in the dispatch table: its handler
// and its serving policy.
type methodSpec struct {
	fn method
	// live marks the live methods (subs.go), which the server neither
	// caches nor gates behind the storage breaker: their results move
	// independently of the head, so generation tagging would serve stale
	// cursors, and they never touch storage, so a tripped breaker says
	// nothing about them. Every other method is cached: its result is a
	// pure function of (chain state at generation, params).
	live bool
}

// methods is the dispatch table, the one place a method is declared.
var methods = map[string]methodSpec{
	"eth_blockNumber":           {fn: ethBlockNumber},
	"eth_getBlockByNumber":      {fn: ethGetBlockByNumber},
	"eth_getBlockByHash":        {fn: ethGetBlockByHash},
	"eth_getTransactionByHash":  {fn: ethGetTransactionByHash},
	"eth_getTransactionReceipt": {fn: ethGetTransactionReceipt},
	"eth_getBalance":            {fn: ethGetBalance},
	"eth_getTransactionCount":   {fn: ethGetTransactionCount},
	"fork_difficultyWindow":     {fn: forkDifficultyWindow},
	"fork_echoCandidates":       {fn: forkEchoCandidates},
	"fork_poolShares":           {fn: forkPoolShares},
	"fork_liveEvents":           {fn: forkLiveEvents, live: true},
	"fork_liveSnapshot":         {fn: forkLiveSnapshot, live: true},
}

// --- hex quantity/data helpers (Ethereum JSON-RPC conventions) ---

// encUint encodes a quantity as minimal 0x-hex.
func encUint(v uint64) string {
	var buf [18]byte
	return string(appendUint(buf[:0], v))
}

// encBig encodes a big quantity as minimal 0x-hex.
func encBig(v *big.Int) string {
	var buf [66]byte // 0x and the 64 digits of a 256-bit value
	return string(appendBig(buf[:0], v))
}

// appendUint appends a quantity as minimal 0x-hex.
func appendUint(dst []byte, v uint64) []byte {
	return strconv.AppendUint(append(dst, "0x"...), v, 16)
}

// appendBig appends a big quantity as minimal 0x-hex; nil reads as zero.
func appendBig(dst []byte, v *big.Int) []byte {
	switch {
	case v == nil || v.Sign() == 0:
		return append(dst, "0x0"...)
	case v.IsUint64():
		return appendUint(dst, v.Uint64())
	}
	return v.Append(append(dst, "0x"...), 16)
}

// encBytes encodes data bytes as 0x-hex.
func encBytes(b []byte) string { return "0x" + hex.EncodeToString(b) }

func decodeParam(raw json.RawMessage, into any, what string) *Error {
	if err := json.Unmarshal(raw, into); err != nil {
		return Errf(ErrCodeInvalidParams, "bad %s: %v", what, err)
	}
	return nil
}

// parseQuantity decodes a 0x-hex quantity parameter.
func parseQuantity(raw json.RawMessage, what string) (uint64, *Error) {
	var s string
	if err := decodeParam(raw, &s, what); err != nil {
		return 0, err
	}
	if !strings.HasPrefix(s, "0x") && !strings.HasPrefix(s, "0X") {
		return 0, Errf(ErrCodeInvalidParams, "bad %s: quantity %q must be 0x-prefixed hex", what, s)
	}
	// The whole remainder must be hex digits: in base 16 ParseUint refuses
	// signs, spaces, underscores and any trailing byte.
	v, err := strconv.ParseUint(s[2:], 16, 64)
	if err != nil {
		return 0, Errf(ErrCodeInvalidParams, "bad %s: quantity %q", what, s)
	}
	return v, nil
}

// parseHash decodes a 32-byte 0x-hex hash parameter.
func parseHash(raw json.RawMessage, what string) (types.Hash, *Error) {
	var s string
	if err := decodeParam(raw, &s, what); err != nil {
		return types.Hash{}, err
	}
	b, err := decodeHexData(s, types.HashLength)
	if err != nil {
		return types.Hash{}, Errf(ErrCodeInvalidParams, "bad %s: %v", what, err)
	}
	return types.BytesToHash(b), nil
}

// parseAddress decodes a 20-byte 0x-hex address parameter.
func parseAddress(raw json.RawMessage, what string) (types.Address, *Error) {
	var s string
	if err := decodeParam(raw, &s, what); err != nil {
		return types.Address{}, err
	}
	b, err := decodeHexData(s, types.AddressLength)
	if err != nil {
		return types.Address{}, Errf(ErrCodeInvalidParams, "bad %s: %v", what, err)
	}
	return types.BytesToAddress(b), nil
}

func decodeHexData(s string, wantLen int) ([]byte, error) {
	if !strings.HasPrefix(s, "0x") && !strings.HasPrefix(s, "0X") {
		return nil, fmt.Errorf("%q must be 0x-prefixed hex", s)
	}
	b, err := hex.DecodeString(s[2:])
	if err != nil {
		return nil, fmt.Errorf("%q: %v", s, err)
	}
	if len(b) != wantLen {
		return nil, fmt.Errorf("%q is %d bytes, want %d", s, len(b), wantLen)
	}
	return b, nil
}

// resolveBlockTag maps a block parameter ("latest", "earliest" or a
// 0x-hex number) to the canonical block it names.
func resolveBlockTag(b *Backend, raw json.RawMessage) (*chain.Block, *Error) {
	var s string
	if err := decodeParam(raw, &s, "block parameter"); err != nil {
		return nil, err
	}
	switch s {
	case "latest", "pending":
		return b.bc.Head(), nil
	case "earliest":
		return b.bc.Genesis(), nil
	}
	n, perr := parseQuantity(raw, "block number")
	if perr != nil {
		return nil, perr
	}
	blk, ok := b.bc.BlockByNumber(n)
	if !ok {
		return nil, Errf(ErrCodeNotFound, "block %d not found", n)
	}
	return blk, nil
}

// storageErr wraps a failed store read as a typed JSON-RPC error. Corrupt
// records and injected I/O faults both land here — never a panic. A store
// that degraded to read-only (diskdb after an unrepairable medium error)
// is tagged so clients can tell "retry later" from "writes are gone for
// good, reads still serve".
func storageErr(err error) *Error {
	e := Errf(ErrCodeStorage, "storage error: %v", err)
	switch {
	case errors.Is(err, db.ErrReadOnly):
		e.Data = "read-only"
	case db.IsTransient(err):
		e.Data = "transient"
	}
	return e
}

// needParams enforces an exact parameter count.
func needParams(params []json.RawMessage, n int, sig string) *Error {
	if len(params) != n {
		return Errf(ErrCodeInvalidParams, "want %d params (%s), got %d", n, sig, len(params))
	}
	return nil
}

// --- block/tx/receipt JSON shapes ---

// rpcBlock is the wire form of a block (Ethereum field names).
type rpcBlock struct {
	Number          string   `json:"number"`
	Hash            string   `json:"hash"`
	ParentHash      string   `json:"parentHash"`
	Timestamp       string   `json:"timestamp"`
	Difficulty      string   `json:"difficulty"`
	TotalDifficulty string   `json:"totalDifficulty,omitempty"`
	GasLimit        string   `json:"gasLimit"`
	GasUsed         string   `json:"gasUsed"`
	Miner           string   `json:"miner"`
	ExtraData       string   `json:"extraData"`
	StateRoot       string   `json:"stateRoot"`
	TxRoot          string   `json:"transactionsRoot"`
	ReceiptsRoot    string   `json:"receiptsRoot"`
	UncleHash       string   `json:"sha3Uncles"`
	Transactions    []any    `json:"transactions"`
	Uncles          []string `json:"uncles"`
}

// rpcTx is the wire form of a transaction.
type rpcTx struct {
	Hash        string  `json:"hash"`
	Nonce       string  `json:"nonce"`
	BlockHash   string  `json:"blockHash"`
	BlockNumber string  `json:"blockNumber"`
	TxIndex     string  `json:"transactionIndex"`
	From        string  `json:"from"`
	To          *string `json:"to"`
	Value       string  `json:"value"`
	Gas         string  `json:"gas"`
	GasPrice    string  `json:"gasPrice"`
	Input       string  `json:"input"`
	ChainID     string  `json:"chainId"`
}

// rpcReceipt is the wire form of a receipt.
type rpcReceipt struct {
	TxHash          string  `json:"transactionHash"`
	TxIndex         string  `json:"transactionIndex"`
	BlockHash       string  `json:"blockHash"`
	BlockNumber     string  `json:"blockNumber"`
	Status          string  `json:"status"`
	GasUsed         string  `json:"gasUsed"`
	ContractAddress *string `json:"contractAddress"`
	// ContractCall is forkwatch's Fig 2 classification: whether the
	// transaction invoked code.
	ContractCall bool `json:"contractCall"`
}

func marshalTx(tx *chain.Transaction, blockHash types.Hash, blockNumber uint64, index uint32) *rpcTx {
	out := &rpcTx{
		Hash:        tx.Hash().Hex(),
		Nonce:       encUint(tx.Nonce),
		BlockHash:   blockHash.Hex(),
		BlockNumber: encUint(blockNumber),
		TxIndex:     encUint(uint64(index)),
		From:        tx.From.Hex(),
		Value:       encBig(tx.Value),
		Gas:         encUint(tx.GasLimit),
		GasPrice:    encBig(tx.GasPrice),
		Input:       encBytes(tx.Data),
		ChainID:     encUint(tx.ChainID),
	}
	if tx.To != nil {
		to := tx.To.Hex()
		out.To = &to
	}
	return out
}

func marshalBlock(b *Backend, blk *chain.Block, fullTxs bool) *rpcBlock {
	h := blk.Header
	out := &rpcBlock{
		Number:       encUint(h.Number),
		Hash:         blk.Hash().Hex(),
		ParentHash:   h.ParentHash.Hex(),
		Timestamp:    encUint(h.Time),
		Difficulty:   encBig(h.Difficulty),
		GasLimit:     encUint(h.GasLimit),
		GasUsed:      encUint(h.GasUsed),
		Miner:        h.Coinbase.Hex(),
		ExtraData:    encBytes(h.Extra),
		StateRoot:    h.StateRoot.Hex(),
		TxRoot:       h.TxRoot.Hex(),
		ReceiptsRoot: h.ReceiptRoot.Hex(),
		UncleHash:    h.UncleHash.Hex(),
		Transactions: make([]any, 0, len(blk.Txs)),
		Uncles:       make([]string, 0, len(blk.Uncles)),
	}
	if td, ok := b.bc.TD(blk.Hash()); ok {
		out.TotalDifficulty = encBig(td)
	}
	for i, tx := range blk.Txs {
		if fullTxs {
			out.Transactions = append(out.Transactions, marshalTx(tx, blk.Hash(), h.Number, uint32(i)))
		} else {
			out.Transactions = append(out.Transactions, tx.Hash().Hex())
		}
	}
	for _, u := range blk.Uncles {
		out.Uncles = append(out.Uncles, u.Hash().Hex())
	}
	return out
}

// --- eth_* methods ---

func ethBlockNumber(_ context.Context, b *Backend, params []json.RawMessage) (any, *Error) {
	if err := needParams(params, 0, "none"); err != nil {
		return nil, err
	}
	return encUint(b.bc.Head().Number()), nil
}

func ethGetBlockByNumber(_ context.Context, b *Backend, params []json.RawMessage) (any, *Error) {
	if err := needParams(params, 2, "blockNumber, fullTransactions"); err != nil {
		return nil, err
	}
	var full bool
	if err := decodeParam(params[1], &full, "fullTransactions flag"); err != nil {
		return nil, err
	}
	blk, perr := resolveBlockTag(b, params[0])
	if perr != nil {
		if perr.Code == ErrCodeNotFound {
			return nil, nil // Ethereum convention: null for absent blocks
		}
		return nil, perr
	}
	return marshalBlock(b, blk, full), nil
}

func ethGetBlockByHash(_ context.Context, b *Backend, params []json.RawMessage) (any, *Error) {
	if err := needParams(params, 2, "blockHash, fullTransactions"); err != nil {
		return nil, err
	}
	h, perr := parseHash(params[0], "block hash")
	if perr != nil {
		return nil, perr
	}
	var full bool
	if err := decodeParam(params[1], &full, "fullTransactions flag"); err != nil {
		return nil, err
	}
	blk, ok := b.bc.GetBlock(h)
	if !ok {
		// The in-memory index holds the canonical chain plus gossiped
		// side blocks; fall back to the store for anything else.
		sblk, sok, err := b.bc.Store().Block(h)
		if err != nil {
			return nil, storageErr(err)
		}
		if !sok {
			return nil, nil
		}
		blk = sblk
	}
	return marshalBlock(b, blk, full), nil
}

func ethGetTransactionByHash(_ context.Context, b *Backend, params []json.RawMessage) (any, *Error) {
	if err := needParams(params, 1, "transactionHash"); err != nil {
		return nil, err
	}
	h, perr := parseHash(params[0], "transaction hash")
	if perr != nil {
		return nil, perr
	}
	tx, blockHash, blockNumber, index, ok, err := b.bc.TransactionByHash(h)
	if err != nil {
		return nil, storageErr(err)
	}
	if !ok {
		return nil, nil
	}
	return marshalTx(tx, blockHash, blockNumber, index), nil
}

func ethGetTransactionReceipt(_ context.Context, b *Backend, params []json.RawMessage) (any, *Error) {
	if err := needParams(params, 1, "transactionHash"); err != nil {
		return nil, err
	}
	h, perr := parseHash(params[0], "transaction hash")
	if perr != nil {
		return nil, perr
	}
	rec, lk, blockNumber, ok, err := b.bc.Store().Receipt(h)
	if err != nil {
		return nil, storageErr(err)
	}
	if !ok {
		return nil, nil
	}
	status := "0x0"
	if rec.Status {
		status = "0x1"
	}
	out := &rpcReceipt{
		TxHash:       rec.TxHash.Hex(),
		TxIndex:      encUint(uint64(lk.Index)),
		BlockHash:    lk.BlockHash.Hex(),
		BlockNumber:  encUint(blockNumber),
		Status:       status,
		GasUsed:      encUint(rec.GasUsed),
		ContractCall: rec.ContractCall,
	}
	if !rec.ContractAddress.IsZero() {
		addr := rec.ContractAddress.Hex()
		out.ContractAddress = &addr
	}
	return out, nil
}

// stateQuery resolves the at-block state behind eth_getBalance and
// eth_getTransactionCount through the state trie.
func stateQuery(b *Backend, params []json.RawMessage, read func(st stateReader, addr types.Address) any) (any, *Error) {
	addr, perr := parseAddress(params[0], "address")
	if perr != nil {
		return nil, perr
	}
	blk, perr := resolveBlockTag(b, params[1])
	if perr != nil {
		return nil, perr
	}
	st, err := b.bc.StateAt(blk.Hash())
	if err != nil {
		return nil, storageErr(err)
	}
	out := read(st, addr)
	// Trie reads report device failures via the state's sticky error, not
	// a panic: surface them as a typed storage error.
	if err := st.Error(); err != nil {
		return nil, storageErr(err)
	}
	return out, nil
}

// stateReader is the slice of state.DB the queries need (kept narrow so
// tests can fake it).
type stateReader interface {
	GetBalance(types.Address) *big.Int
	GetNonce(types.Address) uint64
}

func ethGetBalance(_ context.Context, b *Backend, params []json.RawMessage) (any, *Error) {
	if err := needParams(params, 2, "address, block"); err != nil {
		return nil, err
	}
	return stateQuery(b, params, func(st stateReader, addr types.Address) any {
		return encBig(st.GetBalance(addr))
	})
}

func ethGetTransactionCount(_ context.Context, b *Backend, params []json.RawMessage) (any, *Error) {
	if err := needParams(params, 2, "address, block"); err != nil {
		return nil, err
	}
	return stateQuery(b, params, func(st stateReader, addr types.Address) any {
		return encUint(st.GetNonce(addr))
	})
}

// --- fork_* methods (the paper's analysis primitives) ---

// parseWindow decodes and clamps a [from, to] canonical-block window.
func parseWindow(b *Backend, params []json.RawMessage) (from, to uint64, err *Error) {
	if perr := needParams(params, 2, "fromBlock, toBlock"); perr != nil {
		return 0, 0, perr
	}
	from, err = parseQuantity(params[0], "fromBlock")
	if err != nil {
		return 0, 0, err
	}
	to, err = parseQuantity(params[1], "toBlock")
	if err != nil {
		return 0, 0, err
	}
	if to < from {
		return 0, 0, Errf(ErrCodeInvalidParams, "window [%d, %d] is inverted", from, to)
	}
	if to-from+1 > maxWindow {
		return 0, 0, Errf(ErrCodeInvalidParams, "window of %d blocks exceeds limit %d", to-from+1, maxWindow)
	}
	if head := b.bc.Head().Number(); to > head {
		to = head
	}
	return from, to, nil
}

// forkDifficultyWindow returns the difficulty trajectory over a canonical
// window: the raw series behind the paper's Fig 1/2 difficulty panels
// (the two-week mirror-image shift after the partition).
func forkDifficultyWindow(_ context.Context, b *Backend, params []json.RawMessage) (any, *Error) {
	from, to, perr := parseWindow(b, params)
	if perr != nil {
		return nil, perr
	}
	return encodeWindow(b.name, b.bc.CanonicalBlocks(from, to)), nil
}

// encodeWindow encodes a difficulty window as
// {"chain":…,"points":[{"number","timestamp","difficulty"},…]}, exactly
// what json.Marshal makes of that map. A window is up to maxWindow
// points, so they are appended straight into the result bytes instead of
// being built as values and marshalled.
func encodeWindow(chainName string, blocks []*chain.Block) json.RawMessage {
	name, _ := json.Marshal(chainName) // a string always marshals
	// A point is about 80 bytes while difficulty fits in 64 bits.
	dst := make([]byte, 0, len(`{"chain":,"points":[]}`)+len(name)+80*len(blocks))
	dst = append(dst, `{"chain":`...)
	dst = append(dst, name...)
	dst = append(dst, `,"points":[`...)
	for i, blk := range blocks {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"number":"`...)
		dst = appendUint(dst, blk.Number())
		dst = append(dst, `","timestamp":"`...)
		dst = appendUint(dst, blk.Header.Time)
		dst = append(dst, `","difficulty":"`...)
		dst = appendBig(dst, blk.Header.Difficulty)
		dst = append(dst, `"}`...)
	}
	return append(dst, "]}"...)
}

// forkEchoCandidates joins this chain's canonical window against every
// other partition's tx index on transaction hash: transactions mined on
// more than one chain (the paper's O5 "echoes", its replay-attack
// measurement). Each echo entry names the peer it was found on; with a
// single peer the response matches the historical two-way shape plus a
// "peer" field per entry.
func forkEchoCandidates(_ context.Context, b *Backend, params []json.RawMessage) (any, *Error) {
	if len(b.peers) == 0 {
		return nil, Errf(ErrCodeInternal, "no peer chain configured for cross-chain join")
	}
	from, to, perr := parseWindow(b, params)
	if perr != nil {
		return nil, perr
	}
	type echo struct {
		Hash        string `json:"hash"`
		From        string `json:"from"`
		Peer        string `json:"peer"`
		BlockNumber string `json:"blockNumber"`
		PeerBlock   string `json:"peerBlockNumber"`
	}
	peerNames := make([]string, len(b.peers))
	for i, p := range b.peers {
		peerNames[i] = p.name
	}
	out := []echo{}
	for _, blk := range b.bc.CanonicalBlocks(from, to) {
		for _, tx := range blk.Txs {
			for _, peer := range b.peers {
				lk, ok, err := peer.bc.Store().TxIndex(tx.Hash())
				if err != nil {
					return nil, storageErr(err)
				}
				if !ok {
					continue
				}
				peerBlk, ok := peer.bc.GetBlock(lk.BlockHash)
				if !ok {
					continue
				}
				out = append(out, echo{
					Hash:        tx.Hash().Hex(),
					From:        tx.From.Hex(),
					Peer:        peer.name,
					BlockNumber: encUint(blk.Number()),
					PeerBlock:   encUint(peerBlk.Number()),
				})
			}
		}
	}
	return map[string]any{"chain": b.name, "peers": peerNames, "echoes": out}, nil
}

// forkPoolShares attributes a canonical window's blocks to coinbase
// addresses and returns each miner's share, largest first — the paper's
// Fig 5 pool-concentration measurement (O6).
func forkPoolShares(_ context.Context, b *Backend, params []json.RawMessage) (any, *Error) {
	from, to, perr := parseWindow(b, params)
	if perr != nil {
		return nil, perr
	}
	counts := map[types.Address]int{}
	total := 0
	for _, blk := range b.bc.CanonicalBlocks(from, to) {
		counts[blk.Header.Coinbase]++
		total++
	}
	type share struct {
		Miner  string  `json:"miner"`
		Blocks int     `json:"blocks"`
		Share  float64 `json:"share"`
	}
	out := make([]share, 0, len(counts))
	for addr, n := range counts {
		s := share{Miner: addr.Hex(), Blocks: n}
		if total > 0 {
			s.Share = float64(n) / float64(total)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Blocks != out[j].Blocks {
			return out[i].Blocks > out[j].Blocks
		}
		return out[i].Miner < out[j].Miner
	})
	return map[string]any{"chain": b.name, "totalBlocks": total, "pools": out}, nil
}
