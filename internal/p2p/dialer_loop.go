package p2p

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"time"

	"forkwatch/internal/discover"
)

// maintainInterval paces MaintainPeers; every rotateTicks-th tick a node
// at its target drops one random peer, for the next tick to replace.
const (
	maintainInterval = 5 * time.Second
	rotateTicks      = 12
)

// MaintainPeers runs the discovery/dial loop real nodes run: while the
// server is below target live peers it asks existing peers for neighbors
// (growing the Kademlia table) and dials table entries it is not yet
// connected to, every maintainInterval. Dead entries are evicted by
// Connect. Runs until the server closes; call in a goroutine.
//
// This is the mechanism by which the post-fork networks re-knit
// themselves: a node that lost 90% of its peers at the partition keeps
// asking the survivors for more survivors. The rotation is what re-knits
// a healed partition whose halves each fill every node's target: without
// it, no node is ever below target, and nobody dials across again.
func (s *Server) MaintainPeers(target int) {
	if target <= 0 || target > s.cfg.MaxPeers {
		target = s.cfg.MaxPeers
	}
	// Seeded from all 8 leading node-id bytes: deterministic per node,
	// and collision-free across nodes (two bytes gave only 65536
	// distinct seeds — frequent collisions in any few-hundred-node run
	// meant identical shuffle sequences and correlated dial storms).
	r := rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(s.cfg.Self.ID[:8]))))
	tick := 0
	s.every(maintainInterval, func() {
		tick++
		peers := s.Peers()
		if len(peers) >= target {
			if tick%rotateTicks == 0 {
				s.dropPeer(peers[r.Intn(len(peers))])
			}
			return
		}
		// Learn more nodes around a random point in the id space.
		s.RequestNeighbors(discover.RandomID(r))

		// Dial unconnected table entries until the target is met.
		connected := make(map[discover.NodeID]bool)
		for _, p := range peers {
			connected[p.Node().ID] = true
		}
		candidates := s.table.All()
		r.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		// Healthy candidates first; peers demoted by the score ledger
		// are last-resort dials.
		sort.SliceStable(candidates, func(i, j int) bool {
			return !s.scores.demoted(candidates[i].ID) && s.scores.demoted(candidates[j].ID)
		})
		for _, n := range candidates {
			if s.PeerCount() >= target {
				break
			}
			if connected[n.ID] || n.ID == s.cfg.Self.ID {
				continue
			}
			// Skip nodes inside a ban or backoff window; Connect would
			// refuse them anyway.
			if !s.scores.canDial(n.ID) {
				continue
			}
			// Errors are expected (dead nodes, fork mismatches,
			// duplicates); Connect backs off failed targets and evicts
			// repeatedly dead ones from the table.
			_ = s.Connect(n)
		}
	})
}
