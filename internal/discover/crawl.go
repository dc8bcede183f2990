package discover

import (
	"sort"
)

// FindNodeFunc asks a remote node for its neighbors closest to target. An
// error marks the node unreachable (offline, or it refused us — e.g. a
// fork-id mismatch at the application layer).
type FindNodeFunc func(n Node, target NodeID) ([]Node, error)

// CrawlResult summarises one sweep of the network.
type CrawlResult struct {
	// Reachable holds every node that answered at least one query.
	Reachable []Node
	// Unreachable holds nodes that were advertised but failed to answer.
	Unreachable []Node
	// Queries counts FindNode calls issued.
	Queries int
}

// Crawl walks the network from the seed nodes, querying every discovered
// node for its neighbors until no new nodes appear — the standard
// census technique behind "node count" measurements like the paper's
// observation O1. maxQueries bounds the sweep (0 = unbounded).
func Crawl(seeds []Node, find FindNodeFunc, maxQueries int) CrawlResult {
	var res CrawlResult
	seen := make(map[NodeID]Node)
	reachable := make(map[NodeID]bool)
	queried := make(map[NodeID]bool)

	queue := append([]Node(nil), seeds...)
	for _, s := range seeds {
		seen[s.ID] = s
	}
	for len(queue) > 0 {
		if maxQueries > 0 && res.Queries >= maxQueries {
			break
		}
		n := queue[0]
		queue = queue[1:]
		if queried[n.ID] {
			continue
		}
		queried[n.ID] = true
		res.Queries++

		// Ask for neighbors of the node's own ID: returns its buckets'
		// closest view, enough to enumerate connected components.
		neighbors, err := find(n, n.ID)
		if err != nil {
			continue
		}
		reachable[n.ID] = true
		for _, nb := range neighbors {
			if _, ok := seen[nb.ID]; !ok {
				seen[nb.ID] = nb
				queue = append(queue, nb)
			}
		}
	}
	for id, n := range seen {
		if reachable[id] {
			res.Reachable = append(res.Reachable, n)
		} else {
			res.Unreachable = append(res.Unreachable, n)
		}
	}
	sort.Slice(res.Reachable, func(i, j int) bool {
		return string(res.Reachable[i].ID[:]) < string(res.Reachable[j].ID[:])
	})
	sort.Slice(res.Unreachable, func(i, j int) bool {
		return string(res.Unreachable[i].ID[:]) < string(res.Unreachable[j].ID[:])
	})
	return res
}
