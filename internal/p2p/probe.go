package p2p

import (
	"fmt"
	"time"

	"forkwatch/internal/clock"
	"forkwatch/internal/discover"
)

// Probe is a lightweight handshake-only client used by the crawler
// (experiment E1): it presents a chosen identity and fork id, completes
// the status exchange, asks one FindNode question and disconnects.
//
// A probe presenting the ETC fork id is refused by ETH nodes and vice
// versa, so a crawl "as ETC" counts exactly the nodes still reachable in
// the ETC network — the measurement behind the paper's ~90% node-loss
// observation.
type Probe struct {
	// Self is the identity the probe presents.
	Self discover.Node
	// Status is the chain summary the probe claims (genesis, fork id,
	// head). Typically copied from a reference node on the desired fork.
	Status Status
	// Dialer reaches the network.
	Dialer Dialer
	// Clock times the exchange; nil means the real clock.
	Clock clock.Clock
}

// probeTimeout bounds one probe exchange.
const probeTimeout = 3 * time.Second

// ProbeResult is one successful probe exchange.
type ProbeResult struct {
	// Remote is the status the target presented.
	Remote Status
	// Neighbors is the target's answer to FindNode(target.ID).
	Neighbors []discover.Node
}

// Run probes one node: handshake, FindNode, disconnect.
func (p *Probe) Run(target discover.Node) (*ProbeResult, error) {
	conn, err := p.Dialer.Dial(target.Addr)
	if err != nil {
		return nil, fmt.Errorf("probe: dial %s: %w", target.Addr, err)
	}
	defer conn.Close()
	defer clock.Or(p.Clock).AfterFunc(probeTimeout, func() { conn.Close() }).Stop()

	status := p.Status
	status.ProtocolVersion = ProtocolVersion
	status.Node = p.Self
	remote, err := exchangeStatus(conn, &status)
	if err != nil {
		return nil, fmt.Errorf("probe: handshake with %s: %w", target.Addr, err)
	}
	if !remote.ForkID.Compatible(status.ForkID) {
		return nil, ErrForkMismatch
	}

	if err := writeFrame(conn, encodeFindNode(target.ID)); err != nil {
		return nil, err
	}
	// The target may send us unsolicited gossip; scan for the Neighbors
	// answer (generously — a busy node floods block and tx announces,
	// and under fault injection the answer may arrive late in the mix).
	for i := 0; i < 64; i++ {
		msg, err := ReadMsg(conn)
		if err != nil {
			return nil, fmt.Errorf("probe: awaiting neighbors from %s: %w", target.Addr, err)
		}
		if msg.Code != MsgNeighbors {
			continue
		}
		neighbors, err := decodeNeighbors(msg.Body)
		if err != nil {
			return nil, err
		}
		return &ProbeResult{Remote: *remote, Neighbors: neighbors}, nil
	}
	return nil, fmt.Errorf("probe: %s never answered FindNode", target.Addr)
}

// FindNodeFunc adapts the probe to the discover.Crawl interface.
func (p *Probe) FindNodeFunc() discover.FindNodeFunc {
	return func(n discover.Node, _ discover.NodeID) ([]discover.Node, error) {
		res, err := p.Run(n)
		if err != nil {
			return nil, err
		}
		return res.Neighbors, nil
	}
}
