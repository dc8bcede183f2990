package p2p

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/big"
	"net"
	"testing"
	"time"

	"forkwatch/internal/chain"
	"forkwatch/internal/clock"
	"forkwatch/internal/discover"
	"forkwatch/internal/rlp"
	"forkwatch/internal/types"
)

// frameSample is one message as its encoder frames it, beside the
// rlp.Value tree model of its code and body — the encoding the append
// encoders replaced, one rlp constructor per field.
type frameSample struct {
	name  string
	frame []byte
	code  uint64
	body  rlp.Value
}

// sampleFrames covers every message code, with bodies on both sides of
// the 55-byte short/long list boundary.
func sampleFrames(t testing.TB) []frameSample {
	bc := newChain(t, chain.MainnetLikeConfig())
	var blocks []*chain.Block
	var txs []*chain.Transaction
	for i := 0; i < 3; i++ {
		tx := blkTx(t, bc, i)
		txs = append(txs, tx)
		blocks = append(blocks, mineOn(t, bc, tx))
	}
	status := &Status{
		ProtocolVersion: ProtocolVersion,
		NetworkID:       1,
		TD:              new(big.Int).Lsh(big.NewInt(1), 70),
		Head:            types.HexToHash("0xbeef"),
		HeadNumber:      1_920_000,
		Genesis:         types.HexToHash("0xfeed"),
		ForkID:          chain.ForkID{DAOForkBlock: 1_920_000, DAOForkSupport: true},
		Node:            discover.Node{ID: nodeID("n"), Addr: "10.0.0.1:30303"},
	}
	statusModel := func(s *Status) rlp.Value {
		return rlp.List(rlp.Uint(s.ProtocolVersion), rlp.Uint(s.NetworkID), rlp.BigInt(s.TD),
			rlp.Bytes(s.Head.Bytes()), rlp.Uint(s.HeadNumber), rlp.Bytes(s.Genesis.Bytes()),
			rlp.Uint(s.ForkID.DAOForkBlock), rlp.Bool(s.ForkID.DAOForkSupport),
			rlp.Bytes(s.Node.ID[:]), rlp.String(s.Node.Addr))
	}
	bare := &Status{TD: new(big.Int)}
	blocksModel := func(bs []*chain.Block) rlp.Value {
		items := make([]rlp.Value, len(bs))
		for i, b := range bs {
			items[i] = rlp.Bytes(b.Encode())
		}
		return rlp.List(items...)
	}
	txItems := make([]rlp.Value, len(txs))
	for i, tx := range txs {
		txItems[i] = rlp.Bytes(tx.Encode())
	}
	var nodes []discover.Node
	var nodeItems []rlp.Value
	for i := 0; i < discover.BucketSize; i++ {
		n := discover.Node{ID: nodeID(fmt.Sprint("nb", i)), Addr: fmt.Sprintf("nb%d:30303", i)}
		nodes = append(nodes, n)
		nodeItems = append(nodeItems, rlp.List(rlp.Bytes(n.ID[:]), rlp.String(n.Addr)))
	}
	target := nodeID("target")
	return []frameSample{
		{"status", status.encode(), MsgStatus, statusModel(status)},
		{"bare status", bare.encode(), MsgStatus, statusModel(bare)},
		{"new block", encodeNewBlock(blocks[2], big.NewInt(1<<40)), MsgNewBlock,
			rlp.List(rlp.Bytes(blocks[2].Encode()), rlp.BigInt(big.NewInt(1<<40)))},
		{"no txs", encodeTxs(nil), MsgTransactions, rlp.List()},
		{"txs", encodeTxs(txs), MsgTransactions, rlp.List(txItems...)},
		{"get blocks", encodeGetBlocks(1<<40, maxServedBlocks), MsgGetBlocks,
			rlp.List(rlp.Uint(1<<40), rlp.Uint(maxServedBlocks))},
		{"no blocks", encodeBlocks(nil), MsgBlocks, blocksModel(nil)},
		{"blocks", encodeBlocks(blocks), MsgBlocks, blocksModel(blocks)},
		{"find node", encodeFindNode(target), MsgFindNode, rlp.List(rlp.Bytes(target[:]))},
		{"no neighbors", encodeNeighbors(nil), MsgNeighbors, rlp.List()},
		{"neighbors", encodeNeighbors(nodes), MsgNeighbors, rlp.List(nodeItems...)},
		{"ping", pingFrame, MsgPing, rlp.List()},
		{"pong", pongFrame, MsgPong, rlp.List()},
	}
}

// TestFramesMatchTreeModel: every message encoder writes exactly the
// bytes of the tree model's frame.
func TestFramesMatchTreeModel(t *testing.T) {
	for _, s := range sampleFrames(t) {
		payload := rlp.EncodeList(rlp.Uint(s.code), s.body)
		want := append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
		if !bytes.Equal(s.frame, want) {
			t.Errorf("%s: frame %x, tree model %x", s.name, s.frame, want)
		}
	}
}

// reencode decodes msg with its code's decoder and encodes the result
// again with that code's encoder.
func reencode(msg Message) ([]byte, error) {
	switch msg.Code {
	case MsgStatus:
		s, err := decodeStatus(msg.Body)
		if err != nil {
			return nil, err
		}
		return s.encode(), nil
	case MsgNewBlock:
		b, td, err := decodeNewBlock(msg.Body)
		if err != nil {
			return nil, err
		}
		return encodeNewBlock(b, td), nil
	case MsgTransactions:
		txs, err := decodeTxs(msg.Body)
		if err != nil {
			return nil, err
		}
		return encodeTxs(txs), nil
	case MsgGetBlocks:
		from, count, err := decodeGetBlocks(msg.Body)
		if err != nil {
			return nil, err
		}
		return encodeGetBlocks(from, count), nil
	case MsgBlocks:
		blocks, err := decodeBlocks(msg.Body)
		if err != nil {
			return nil, err
		}
		return encodeBlocks(blocks), nil
	case MsgFindNode:
		target, err := decodeFindNode(msg.Body)
		if err != nil {
			return nil, err
		}
		return encodeFindNode(target), nil
	case MsgNeighbors:
		nodes, err := decodeNeighbors(msg.Body)
		if err != nil {
			return nil, err
		}
		return encodeNeighbors(nodes), nil
	case MsgPing, MsgPong:
		// The keepalive bodies are not read; the frames carry an empty one.
		if items, err := msg.Body.AsList(); err != nil || len(items) != 0 {
			return nil, ErrBadMessage
		}
		if msg.Code == MsgPing {
			return pingFrame, nil
		}
		return pongFrame, nil
	}
	return nil, fmt.Errorf("%w: unknown code %d", ErrBadMessage, msg.Code)
}

// FuzzReadMsg: no frame bytes panic ReadMsg or the decoder for the
// frame's code, and every message that decodes re-encodes to the payload
// it was read from — the differential test of the frame encoders against
// untrusted wire input.
func FuzzReadMsg(f *testing.F) {
	for _, s := range sampleFrames(f) {
		f.Add(s.frame)
	}
	f.Add([]byte{0, 0, 0, 1, 0xb9})
	f.Add([]byte{0, 0, 0, 3, 0xc2, 0x01, 0xc0})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMsg(bytes.NewReader(data))
		if err != nil {
			return
		}
		re, err := reencode(msg)
		if err != nil {
			return
		}
		payload := data[4 : 4+binary.BigEndian.Uint32(data)]
		if !bytes.Equal(re[4:], payload) {
			t.Fatalf("code %d: read %x, re-encoded %x", msg.Code, payload, re[4:])
		}
	})
}

// frameConn records the frames a peer's write loop writes.
type frameConn struct {
	net.Conn
	frames chan []byte
}

func (c *frameConn) Write(p []byte) (int, error) {
	c.frames <- p
	return len(p), nil
}

// TestBroadcastQueuesOneFrame: a broadcast encodes its message once and
// every peer writes that same frame — one backing array, not a copy per
// peer.
func TestBroadcastQueuesOneFrame(t *testing.T) {
	bc := newChain(t, chain.MainnetLikeConfig())
	srv := NewServer(Config{Self: discover.Node{ID: nodeID("bcast"), Addr: "bcast"}, NetworkID: 1, Backend: NewChainBackend(bc)})
	defer srv.Close()
	conns := make([]*frameConn, 4)
	for i := range conns {
		local, remote := net.Pipe()
		defer remote.Close()
		conns[i] = &frameConn{Conn: local, frames: make(chan []byte, 1)}
		status := &Status{Node: discover.Node{ID: nodeID(fmt.Sprint("bcast", i))}, TD: big.NewInt(1)}
		srv.peers[status.Node.ID] = newPeer(conns[i], status, clock.Real, nil)
	}
	srv.BroadcastTxs([]*chain.Transaction{blkTx(t, bc, 0)})
	var first []byte
	for i, c := range conns {
		select {
		case f := <-c.frames:
			if i == 0 {
				first = f
			} else if &f[0] != &first[0] || len(f) != len(first) {
				t.Fatalf("peer %d wrote its own frame, not the broadcast's", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("peer %d wrote nothing", i)
		}
	}
}

// TestOversizedBlockRangeRejected: a range longer than one run is a bad
// message. None of its blocks land and the sender's score rises; a range
// of exactly one run from the same peer lands.
func TestOversizedBlockRangeRejected(t *testing.T) {
	mem := NewMemNet()
	a := newTestNode(t, mem, "wide-a", newChain(t, chain.MainnetLikeConfig()))
	src := newChain(t, chain.MainnetLikeConfig())
	blocks := make([]*chain.Block, maxServedBlocks+1)
	for i := range blocks {
		blocks[i] = mineOn(t, src)
	}
	conn, err := mem.Dial("wide-a")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A lighter head than a's own, so a asks nothing of this peer.
	handshakeAs(t, conn, a.bc, "wide", big.NewInt(1), 0)
	waitFor(t, "peer registered", func() bool { return a.server.PeerCount() == 1 })

	if err := writeFrame(conn, encodeBlocks(blocks)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "penalty for the oversized range", func() bool {
		return a.server.PeerScore(nodeID("wide")) >= penaltyBadMessage
	})
	if n := a.bc.Head().Number(); n != 0 {
		t.Fatalf("an oversized range moved the head to %d", n)
	}
	if err := writeFrame(conn, encodeBlocks(blocks[:maxServedBlocks])); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a one-run range to land", func() bool { return a.bc.Head().Number() == maxServedBlocks })
}
