package discover

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func rid(seed int64) NodeID {
	return RandomID(rand.New(rand.NewSource(seed)))
}

func TestLogDist(t *testing.T) {
	var a, b NodeID
	if LogDist(a, b) != 0 {
		t.Error("equal ids should have distance 0")
	}
	b[0] = 0x80 // top bit differs
	if got := LogDist(a, b); got != 256 {
		t.Errorf("top-bit distance = %d, want 256", got)
	}
	var c NodeID
	c[31] = 1 // lowest bit differs
	if got := LogDist(a, c); got != 1 {
		t.Errorf("bottom-bit distance = %d, want 1", got)
	}
}

// Property: LogDist is symmetric and satisfies the XOR-metric triangle
// relation d(a,c) <= max(d(a,b), d(b,c)).
func TestQuickLogDistProperties(t *testing.T) {
	f := func(a, b, c NodeID) bool {
		if LogDist(a, b) != LogDist(b, a) {
			return false
		}
		dac := LogDist(a, c)
		dab := LogDist(a, b)
		dbc := LogDist(b, c)
		maxD := dab
		if dbc > maxD {
			maxD = dbc
		}
		return dac <= maxD
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistCmp(t *testing.T) {
	target := rid(1)
	a, b := rid(2), rid(3)
	if DistCmp(target, a, a) != 0 {
		t.Error("same node should be equidistant")
	}
	if DistCmp(target, a, b) != -DistCmp(target, b, a) {
		t.Error("DistCmp should be antisymmetric")
	}
	if DistCmp(target, target, a) != -1 {
		t.Error("target itself is closest")
	}
}

func TestTableAddRemove(t *testing.T) {
	self := Node{ID: rid(0), Addr: "self"}
	tab := NewTable(self)
	if tab.Add(self) {
		t.Error("table must not store the local node")
	}
	n1 := Node{ID: rid(1), Addr: "n1"}
	if !tab.Add(n1) {
		t.Error("fresh add should succeed")
	}
	if !tab.Add(n1) {
		t.Error("re-add of known node should report presence")
	}
	if tab.Len() != 1 {
		t.Errorf("len = %d, want 1", tab.Len())
	}
	// Address refresh.
	tab.Add(Node{ID: n1.ID, Addr: "n1-new"})
	if got := tab.All()[0].Addr; got != "n1-new" {
		t.Errorf("address not refreshed: %s", got)
	}
	tab.Remove(n1.ID)
	if tab.Len() != 0 {
		t.Error("remove failed")
	}
	tab.Remove(n1.ID) // idempotent
}

func TestTableBucketCap(t *testing.T) {
	self := Node{ID: NodeID{}, Addr: "self"}
	tab := NewTable(self)
	// Fill one bucket: ids sharing the same top differing bit.
	added := 0
	for i := 0; i < 100; i++ {
		var id NodeID
		id[0] = 0x80 // all in bucket 256
		id[31] = byte(i + 1)
		if tab.Add(Node{ID: id, Addr: fmt.Sprintf("n%d", i)}) {
			added++
		}
	}
	if added != BucketSize {
		t.Errorf("bucket accepted %d nodes, want %d", added, BucketSize)
	}
}

func TestClosest(t *testing.T) {
	self := Node{ID: rid(0)}
	tab := NewTable(self)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		tab.Add(Node{ID: RandomID(r), Addr: fmt.Sprintf("n%d", i)})
	}
	target := RandomID(r)
	got := tab.Closest(target, 10)
	if len(got) != 10 {
		t.Fatalf("Closest returned %d nodes", len(got))
	}
	// Verify ordering and that nothing in the table is closer than the
	// returned worst.
	for i := 1; i < len(got); i++ {
		if DistCmp(target, got[i-1].ID, got[i].ID) > 0 {
			t.Fatal("Closest result not sorted by distance")
		}
	}
	worst := got[len(got)-1]
	inResult := make(map[NodeID]bool)
	for _, n := range got {
		inResult[n.ID] = true
	}
	for _, n := range tab.All() {
		if !inResult[n.ID] && DistCmp(target, n.ID, worst.ID) < 0 {
			t.Fatal("a closer node was omitted from Closest")
		}
	}
}

// staticNet is a synthetic network for crawl/lookup tests: adjacency by
// table.
type staticNet struct {
	tables map[NodeID]*Table
	dead   map[NodeID]bool
}

func newStaticNet(r *rand.Rand, n int) (*staticNet, []Node) {
	net := &staticNet{tables: make(map[NodeID]*Table), dead: make(map[NodeID]bool)}
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: RandomID(r), Addr: fmt.Sprintf("n%d", i)}
	}
	for i, n := range nodes {
		tab := NewTable(n)
		// Ring plus random shortcuts: connected.
		tab.Add(nodes[(i+1)%len(nodes)])
		tab.Add(nodes[(i+len(nodes)-1)%len(nodes)])
		for j := 0; j < 3; j++ {
			tab.Add(nodes[r.Intn(len(nodes))])
		}
		net.tables[n.ID] = tab
	}
	return net, nodes
}

func (s *staticNet) find(n Node, target NodeID) ([]Node, error) {
	if s.dead[n.ID] {
		return nil, fmt.Errorf("node %x offline", n.ID[:4])
	}
	return s.tables[n.ID].Closest(target, BucketSize), nil
}

func TestCrawlFullCensus(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	net, nodes := newStaticNet(r, 60)
	res := Crawl(nodes[:1], net.find, 0)
	if len(res.Reachable) != 60 {
		t.Errorf("crawl found %d of 60 nodes", len(res.Reachable))
	}
	if res.Queries == 0 {
		t.Error("crawl issued no queries")
	}
}

func TestCrawlCountsUnreachable(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	net, nodes := newStaticNet(r, 40)
	// Kill 30 of 40 nodes: the crawl should report them unreachable —
	// the paper's O1 measurement shape (90% loss at the fork).
	for _, n := range nodes[10:] {
		net.dead[n.ID] = true
	}
	res := Crawl(nodes[:1], net.find, 0)
	if len(res.Reachable) != 10 {
		t.Errorf("reachable = %d, want 10", len(res.Reachable))
	}
	if len(res.Unreachable) == 0 {
		t.Error("dead nodes should be reported unreachable")
	}
}

func TestCrawlQueryBudget(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	net, nodes := newStaticNet(r, 50)
	res := Crawl(nodes[:1], net.find, 5)
	if res.Queries > 5 {
		t.Errorf("crawl exceeded budget: %d queries", res.Queries)
	}
}

// TestDialBackoff pins the redial schedule: exponential growth in the
// failure count, clamped to max, jittered deterministically per node.
func TestDialBackoff(t *testing.T) {
	id := rid(7)
	base := 100 * time.Millisecond
	max := 2 * time.Second

	if got := DialBackoff(id, 0, base, max); got != 0 {
		t.Errorf("zero failures: backoff = %v, want 0", got)
	}
	if got := DialBackoff(id, 3, 0, max); got != 0 {
		t.Errorf("disabled base: backoff = %v, want 0", got)
	}

	// Deterministic: same inputs, same delay.
	if DialBackoff(id, 2, base, max) != DialBackoff(id, 2, base, max) {
		t.Error("backoff is not deterministic")
	}

	// Exponential growth up to the clamp, always within the jitter band
	// [0.75, 1.25) of the nominal doubling, never above max.
	prev := time.Duration(0)
	for fails := 1; fails <= 10; fails++ {
		d := DialBackoff(id, fails, base, max)
		nominal := base << uint(fails-1)
		if nominal > max {
			nominal = max
		}
		lo := time.Duration(float64(nominal) * 0.75)
		if d < lo || d > max {
			t.Errorf("fails=%d: backoff %v outside [%v, %v]", fails, d, lo, max)
		}
		if d < prev && d < max*3/4 {
			t.Errorf("fails=%d: backoff shrank %v -> %v before the clamp", fails, prev, d)
		}
		prev = d
	}

	// Jitter de-synchronizes nodes: among many ids the same failure count
	// must produce more than one distinct delay.
	seen := make(map[time.Duration]bool)
	for seed := int64(0); seed < 16; seed++ {
		seen[DialBackoff(rid(seed), 1, base, max)] = true
	}
	if len(seen) < 2 {
		t.Error("per-node jitter produced identical backoffs across nodes")
	}
}
