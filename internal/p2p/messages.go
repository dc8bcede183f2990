// Package p2p implements the partition-aware wire protocol forkwatch
// nodes speak: length-framed RLP messages over net.Conn, an eth/63-style
// status handshake carrying genesis + fork id, block and transaction
// gossip, a block-range sync, and FindNode/Neighbors discovery messages.
//
// Every message goes out as a frame built once by its encoder with the
// rlp append encoders — the length, then rlp([code, body]) — and a
// broadcast queues that one frame to every peer. Reading decodes a frame
// into an rlp.Value tree, and each code's decoder accepts only what its
// encoder would write.
//
// The handshake is where the paper's network partition physically
// happens: two nodes whose fork ids are incompatible (one accepted the
// DAO fork, the other did not) disconnect immediately, so each fork's
// gossip only reaches its own side. The message *format*, however, is
// shared — which is why transactions can be rebroadcast across the
// partition (Fig 4): an attacker node can complete the handshake with
// both sides as long as it presents the matching fork id to each.
package p2p

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"

	"forkwatch/internal/chain"
	"forkwatch/internal/discover"
	"forkwatch/internal/rlp"
	"forkwatch/internal/types"
)

// Protocol constants.
const (
	// ProtocolVersion is the wire protocol version (mirrors eth/63's
	// role; both partitions keep speaking the same version — the point
	// of the replay vulnerability).
	ProtocolVersion = 63
	// MaxFrameSize bounds a single message frame (DoS guard).
	MaxFrameSize = 8 << 20
)

// Message codes.
const (
	MsgStatus uint64 = iota
	MsgNewBlock
	MsgTransactions
	MsgGetBlocks
	MsgBlocks
	MsgFindNode
	MsgNeighbors
)

// Framing errors.
var (
	ErrFrameTooLarge = errors.New("p2p: frame exceeds maximum size")
	ErrBadMessage    = errors.New("p2p: malformed message")
)

// Message is one framed protocol message as read.
type Message struct {
	Code uint64
	// Body is the RLP value of the message payload.
	Body rlp.Value
}

// A frame is one encoded message as it goes on the wire: a 4-byte
// big-endian length, then rlp([code, body]). Each message's encoder
// (Status.encode, encodeNewBlock, ...) builds its frame once, in one
// buffer; a broadcast queues that same frame to every peer, and nothing
// writes to a frame once it is built. beginFrame starts one, the encoder
// appends the body list's items, and endFrame closes it.
func beginFrame(code uint64) []byte {
	return rlp.AppendUint(make([]byte, 4, 128), code)
}

// frameBody is where a frame's body list begins: after the length and the
// code, which is one byte for every code below 0x80.
const frameBody = 5

func endFrame(f []byte) []byte {
	f = rlp.CloseList(f, frameBody)
	f = rlp.CloseList(f, 4)
	binary.BigEndian.PutUint32(f, uint32(len(f)-4))
	return f
}

// writeFrame writes a frame as a SINGLE Write call, so each protocol
// message is one transport frame — the unit fault-injecting transports
// drop or corrupt, and one syscall instead of two on TCP.
func writeFrame(w io.Writer, f []byte) error {
	if len(f)-4 > MaxFrameSize {
		return ErrFrameTooLarge
	}
	_, err := w.Write(f)
	return err
}

// ReadMsg reads one framed message.
func ReadMsg(r io.Reader) (Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Message{}, err
	}
	size := binary.BigEndian.Uint32(lenBuf[:])
	if size > MaxFrameSize {
		return Message{}, ErrFrameTooLarge
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Message{}, err
	}
	v, err := rlp.Decode(payload)
	if err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	items, err := v.ListOf(2)
	if err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	code, err := items[0].AsUint()
	if err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return Message{Code: code, Body: items[1]}, nil
}

// Status is the handshake payload. It carries the sender's node identity
// (id + dialable address) alongside the chain summary.
type Status struct {
	ProtocolVersion uint64
	NetworkID       uint64
	TD              *big.Int
	Head            types.Hash
	HeadNumber      uint64
	Genesis         types.Hash
	ForkID          chain.ForkID
	Node            discover.Node
}

// encode returns the status message's frame.
func (s *Status) encode() []byte {
	support := uint64(0)
	if s.ForkID.DAOForkSupport {
		support = 1
	}
	f := beginFrame(MsgStatus)
	f = rlp.AppendUint(f, s.ProtocolVersion)
	f = rlp.AppendUint(f, s.NetworkID)
	f = rlp.AppendBigInt(f, s.TD)
	f = rlp.AppendBytes(f, s.Head[:])
	f = rlp.AppendUint(f, s.HeadNumber)
	f = rlp.AppendBytes(f, s.Genesis[:])
	f = rlp.AppendUint(f, s.ForkID.DAOForkBlock)
	f = rlp.AppendUint(f, support)
	f = rlp.AppendBytes(f, s.Node.ID[:])
	f = rlp.AppendBytes(f, []byte(s.Node.Addr))
	return endFrame(f)
}

func decodeStatus(v rlp.Value) (*Status, error) {
	items, err := v.ListOf(10)
	if err != nil {
		return nil, fmt.Errorf("%w: status: %v", ErrBadMessage, err)
	}
	s := &Status{}
	if s.ProtocolVersion, err = items[0].AsUint(); err != nil {
		return nil, err
	}
	if s.NetworkID, err = items[1].AsUint(); err != nil {
		return nil, err
	}
	if s.TD, err = items[2].AsBigInt(); err != nil {
		return nil, err
	}
	if err = decodeFixed(items[3], s.Head[:]); err != nil {
		return nil, err
	}
	if s.HeadNumber, err = items[4].AsUint(); err != nil {
		return nil, err
	}
	if err = decodeFixed(items[5], s.Genesis[:]); err != nil {
		return nil, err
	}
	if s.ForkID.DAOForkBlock, err = items[6].AsUint(); err != nil {
		return nil, err
	}
	if s.ForkID.DAOForkSupport, err = items[7].AsBool(); err != nil {
		return nil, err
	}
	if err = decodeFixed(items[8], s.Node.ID[:]); err != nil {
		return nil, err
	}
	addrB, err := items[9].AsBytes()
	if err != nil {
		return nil, err
	}
	s.Node.Addr = string(addrB)
	return s, nil
}

// decodeFixed decodes a fixed-width byte string, a hash or a node id, into
// dst; any other length is malformed.
func decodeFixed(v rlp.Value, dst []byte) error {
	b, err := v.AsBytes()
	if err == nil && len(b) != len(dst) {
		err = fmt.Errorf("%w: %d-byte field, want %d", ErrBadMessage, len(b), len(dst))
	}
	copy(dst, b)
	return err
}

// encodeNewBlock returns the frame announcing a block with its total difficulty.
func encodeNewBlock(b *chain.Block, td *big.Int) []byte {
	f := rlp.AppendBytes(beginFrame(MsgNewBlock), b.Encode())
	return endFrame(rlp.AppendBigInt(f, td))
}

func decodeNewBlock(v rlp.Value) (*chain.Block, *big.Int, error) {
	items, err := v.ListOf(2)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: new block: %v", ErrBadMessage, err)
	}
	enc, err := items[0].AsBytes()
	if err != nil {
		return nil, nil, err
	}
	blk, err := chain.DecodeBlock(enc)
	if err != nil {
		return nil, nil, err
	}
	td, err := items[1].AsBigInt()
	if err != nil {
		return nil, nil, err
	}
	return blk, td, nil
}

// encodeTxs returns the frame of a transaction announcement.
func encodeTxs(txs []*chain.Transaction) []byte {
	f := beginFrame(MsgTransactions)
	for _, tx := range txs {
		f = rlp.AppendBytes(f, tx.Encode())
	}
	return endFrame(f)
}

func decodeTxs(v rlp.Value) ([]*chain.Transaction, error) {
	return decodeEach(v, "txs", math.MaxInt, chain.DecodeTx)
}

// decodeEach decodes a list of at most max byte strings with dec.
func decodeEach[T any](v rlp.Value, what string, max int, dec func([]byte) (T, error)) ([]T, error) {
	items, err := v.AsList()
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadMessage, what, err)
	}
	if len(items) > max {
		return nil, fmt.Errorf("%w: %d %s, at most %d", ErrBadMessage, len(items), what, max)
	}
	out := make([]T, 0, len(items))
	for _, it := range items {
		enc, err := it.AsBytes()
		if err != nil {
			return nil, err
		}
		x, err := dec(enc)
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

// encodeGetBlocks returns the frame requesting blocks from..from+count-1.
func encodeGetBlocks(from, count uint64) []byte {
	return endFrame(rlp.AppendUint(rlp.AppendUint(beginFrame(MsgGetBlocks), from), count))
}

func decodeGetBlocks(v rlp.Value) (from, count uint64, err error) {
	items, err := v.ListOf(2)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: get blocks: %v", ErrBadMessage, err)
	}
	if from, err = items[0].AsUint(); err != nil {
		return 0, 0, err
	}
	if count, err = items[1].AsUint(); err != nil {
		return 0, 0, err
	}
	return from, count, nil
}

// encodeBlocks returns the frame of a block range.
func encodeBlocks(blocks []*chain.Block) []byte {
	f := beginFrame(MsgBlocks)
	for _, b := range blocks {
		f = rlp.AppendBytes(f, b.Encode())
	}
	return endFrame(f)
}

func decodeBlocks(v rlp.Value) ([]*chain.Block, error) {
	// Honest peers serve at most one run, which lands as one commit.
	return decodeEach(v, "blocks", maxServedBlocks, chain.DecodeBlock)
}

// encodeFindNode returns the frame asking for the nodes closest to target.
func encodeFindNode(target discover.NodeID) []byte {
	return endFrame(rlp.AppendBytes(beginFrame(MsgFindNode), target[:]))
}

func decodeFindNode(v rlp.Value) (discover.NodeID, error) {
	items, err := v.ListOf(1)
	if err != nil {
		return discover.NodeID{}, fmt.Errorf("%w: find node: %v", ErrBadMessage, err)
	}
	var id discover.NodeID
	err = decodeFixed(items[0], id[:])
	return id, err
}

// encodeNeighbors returns the frame answering FindNode with nodes.
func encodeNeighbors(nodes []discover.Node) []byte {
	f := beginFrame(MsgNeighbors)
	for _, n := range nodes {
		pair := len(f)
		f = rlp.AppendBytes(f, n.ID[:])
		f = rlp.AppendBytes(f, []byte(n.Addr))
		f = rlp.CloseList(f, pair)
	}
	return endFrame(f)
}

func decodeNeighbors(v rlp.Value) ([]discover.Node, error) {
	items, err := v.AsList()
	if err != nil {
		return nil, fmt.Errorf("%w: neighbors: %v", ErrBadMessage, err)
	}
	nodes := make([]discover.Node, 0, len(items))
	for _, it := range items {
		pair, err := it.ListOf(2)
		if err != nil {
			return nil, err
		}
		var n discover.Node
		if err := decodeFixed(pair[0], n.ID[:]); err != nil {
			return nil, err
		}
		addrB, err := pair[1].AsBytes()
		if err != nil {
			return nil, err
		}
		n.Addr = string(addrB)
		nodes = append(nodes, n)
	}
	return nodes, nil
}
