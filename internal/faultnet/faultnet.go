// Package faultnet is a deterministic fault-injecting transport wrapper.
// It composes over any Dialer/Listener pair — real TCP or the in-memory
// MemNet — and injects the failure modes that shaped the paper's
// partition dynamics: latency and jitter, probabilistic frame loss,
// byte-level corruption, bandwidth caps, mid-stream connection resets,
// slow-loris stalls, and scripted bisection partitions.
//
// Every random decision is drawn from a *rand.Rand derived from a master
// seed plus the connection's endpoint labels and per-pair dial sequence,
// so the same seed over the same dial sequence produces the same fault
// schedule. Delays are timed on a clock.Clock: tests pass a clock.Fake and
// step it, without changing which frames are dropped or corrupted.
//
// A "frame" here is one Write call. The p2p layer writes each framed wire
// message with a single Write, so frame-level loss and corruption at this
// layer line up exactly with protocol messages.
package faultnet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"time"

	"forkwatch/internal/clock"
)

// Dialer is the minimal dialing interface faultnet wraps. It is
// structurally identical to p2p.Dialer, so either package's transports
// satisfy both.
type Dialer interface {
	Dial(addr string) (net.Conn, error)
}

// Fault-injection errors.
var (
	// ErrPartitioned reports a dial across an active scripted partition.
	ErrPartitioned = errors.New("faultnet: destination unreachable (partitioned)")
	// ErrInjectedReset reports a connection killed by the reset fault.
	ErrInjectedReset = errors.New("faultnet: connection reset (injected)")
	// ErrConnClosed reports I/O on a closed fault conn.
	ErrConnClosed = errors.New("faultnet: connection closed")
)

// Faults configures the injected failure modes. The zero value injects
// nothing and is a transparent pass-through.
type Faults struct {
	// Seed is the master seed for every probabilistic decision.
	Seed int64
	// Latency is a fixed one-way delay applied to every frame.
	Latency time.Duration
	// Jitter adds a uniform random [0, Jitter) delay per frame.
	Jitter time.Duration
	// DropRate is the probability a frame is silently discarded.
	DropRate float64
	// CorruptRate is the probability one random byte of a frame is
	// bit-flipped before transmission.
	CorruptRate float64
	// ResetRate is the probability a frame triggers a full connection
	// reset instead of being sent.
	ResetRate float64
	// BandwidthBps caps each connection direction to this many bytes per
	// second (0 = unlimited), modelled as a serialization delay.
	BandwidthBps int
	// StallWrites, when > 0, turns the connection into a slow loris after
	// that many frames: writes stop making progress and block until the
	// connection is closed.
	StallWrites int
	// Clock times the delays; nil means the real clock. The fault
	// schedule (which frames are delayed, dropped or corrupted, and by
	// how much) does not depend on it.
	Clock clock.Clock
}

// Stats counts injected faults across a Net.
type Stats struct {
	Frames      int64
	Dropped     int64
	Corrupted   int64
	Resets      int64
	Stalls      int64
	Refusals    int64 // dials refused by an active partition
	TotalDelay  time.Duration
	Connections int64
}

// Net wraps an underlying transport with fault injection and partition
// scripting. Create per-node endpoints with Endpoint.
type Net struct {
	inner  Dialer
	faults Faults

	mu      sync.Mutex
	sides   map[string]int // addr -> partition side; empty map = healed
	conns   map[*Conn]struct{}
	dialSeq map[string]int
	stats   Stats
}

// New wraps dialer with the given fault plan.
func New(dialer Dialer, faults Faults) *Net {
	faults.Clock = clock.Or(faults.Clock)
	return &Net{
		inner:   dialer,
		faults:  faults,
		sides:   make(map[string]int),
		conns:   make(map[*Conn]struct{}),
		dialSeq: make(map[string]int),
	}
}

// Stats returns a snapshot of the fault counters.
func (n *Net) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// PartitionSets installs a scripted bisection: addresses in a are on one
// side, addresses in b on the other. Dials between the sides are refused
// and live connections that cross them are reset; addresses in neither
// set are unaffected.
func (n *Net) PartitionSets(a, b []string) {
	n.mu.Lock()
	n.sides = make(map[string]int, len(a)+len(b))
	for _, addr := range a {
		n.sides[addr] = 0
	}
	for _, addr := range b {
		n.sides[addr] = 1
	}
	var kill []*Conn
	for c := range n.conns {
		if n.crossesLocked(c.local, c.remote) {
			kill = append(kill, c)
		}
	}
	n.mu.Unlock()
	// Closing the dial-side conn propagates to the accepted side, so the
	// bisection severs both directions.
	for _, c := range kill {
		c.Close()
	}
}

// Heal removes the partition; subsequent dials succeed again.
func (n *Net) Heal() {
	n.mu.Lock()
	n.sides = make(map[string]int)
	n.mu.Unlock()
}

func (n *Net) crossesLocked(a, b string) bool {
	if a == "" || b == "" {
		return false
	}
	sa, oka := n.sides[a]
	sb, okb := n.sides[b]
	return oka && okb && sa != sb
}

// Endpoint binds a node address to the net, so outbound connections know
// both their local and remote labels (partition enforcement and seed
// derivation need the pair).
func (n *Net) Endpoint(self string) *Endpoint {
	return &Endpoint{net: n, self: self}
}

// Endpoint is one node's view of the faulty network. It satisfies the
// p2p Dialer interface and wraps that node's listener.
type Endpoint struct {
	net  *Net
	self string
}

// Dial connects through the underlying transport, refusing dials across
// an active partition, and returns a fault-injecting conn.
func (e *Endpoint) Dial(addr string) (net.Conn, error) {
	if err := e.refuse(addr); err != nil {
		return nil, err
	}
	n := e.net
	pair := e.self + "->" + addr
	n.mu.Lock()
	seq := n.dialSeq[pair]
	n.dialSeq[pair] = seq + 1
	n.mu.Unlock()

	inner, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := n.wrap(inner, e.self, addr, fmt.Sprintf("%s#%d", pair, seq))
	// A partition installed while the dial was in flight missed c in its
	// sweep.
	if err := e.refuse(addr); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// refuse counts and reports a dial to addr across an active partition.
func (e *Endpoint) refuse(addr string) error {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.crossesLocked(e.self, addr) {
		return nil
	}
	n.stats.Refusals++
	return fmt.Errorf("%w: %s -> %s", ErrPartitioned, e.self, addr)
}

// WrapListener wraps ln so accepted connections inject faults on their
// outbound (server -> client) direction. Accepted conns carry no remote
// label; partitions sever them through their dial-side pipe half.
func (e *Endpoint) WrapListener(ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, ep: e}
}

type faultListener struct {
	net.Listener
	ep *Endpoint
	mu sync.Mutex
	n  int
}

// Accept implements net.Listener.
func (l *faultListener) Accept() (net.Conn, error) {
	inner, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	seq := l.n
	l.n++
	l.mu.Unlock()
	label := fmt.Sprintf("%s<-accept#%d", l.ep.self, seq)
	return l.ep.net.wrap(inner, l.ep.self, "", label), nil
}

// connSeed derives a per-connection RNG seed from the master seed and the
// connection label, so fault schedules are stable per connection identity
// regardless of goroutine interleaving across connections.
func (n *Net) connSeed(label string) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(n.faults.Seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(label))
	return int64(h.Sum64())
}

func (n *Net) wrap(inner net.Conn, local, remote, label string) *Conn {
	c := &Conn{
		Conn:   inner,
		net:    n,
		local:  local,
		remote: remote,
		rng:    rand.New(rand.NewSource(n.connSeed(label))),
		closed: make(chan struct{}),
	}
	n.mu.Lock()
	n.conns[c] = struct{}{}
	n.stats.Connections++
	n.mu.Unlock()
	return c
}

// Conn is a fault-injecting net.Conn. Reads pass through; writes are
// where frames are delayed, dropped, corrupted, reset or stalled.
type Conn struct {
	net.Conn
	net    *Net
	local  string
	remote string

	mu     sync.Mutex // serializes writers and guards rng/seq
	rng    *rand.Rand
	seq    int
	closed chan struct{}
	once   sync.Once
}

// Close implements net.Conn. Idempotent.
func (c *Conn) Close() error {
	var err error
	c.once.Do(func() {
		close(c.closed)
		err = c.Conn.Close()
		c.net.mu.Lock()
		delete(c.net.conns, c)
		c.net.mu.Unlock()
	})
	return err
}

// Write injects the configured faults, then forwards to the wrapped conn.
// Dropped frames report success, exactly like a lossy network below TCP
// framing would look to the application.
func (c *Conn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, ErrConnClosed
	default:
	}
	f := &c.net.faults

	c.mu.Lock()
	seq := c.seq
	c.seq++
	// Draw all randomness in a fixed order under the lock so the
	// schedule depends only on the seed, not on delay timing.
	var delay time.Duration
	if f.Latency > 0 {
		delay += f.Latency
	}
	if f.Jitter > 0 {
		delay += time.Duration(c.rng.Int63n(int64(f.Jitter)))
	}
	if f.BandwidthBps > 0 {
		delay += time.Duration(len(p)) * time.Second / time.Duration(f.BandwidthBps)
	}
	stall := f.StallWrites > 0 && seq >= f.StallWrites
	reset := !stall && f.ResetRate > 0 && c.rng.Float64() < f.ResetRate
	drop := !stall && !reset && f.DropRate > 0 && c.rng.Float64() < f.DropRate
	corrupt := -1
	if !stall && !reset && !drop && f.CorruptRate > 0 && c.rng.Float64() < f.CorruptRate && len(p) > 0 {
		corrupt = c.rng.Intn(len(p))
	}

	c.net.note(delay, stall, reset, drop, corrupt >= 0)

	if stall {
		// A slow loris: the write never makes progress.
		c.mu.Unlock()
		<-c.closed
		return 0, ErrConnClosed
	}
	if reset {
		c.mu.Unlock()
		c.Close()
		return 0, ErrInjectedReset
	}
	if delay > 0 && !clock.Wait(f.Clock, delay, c.closed) {
		c.mu.Unlock()
		return 0, ErrConnClosed
	}
	if drop {
		c.mu.Unlock()
		return len(p), nil
	}
	var buf []byte
	if corrupt >= 0 {
		buf = append([]byte(nil), p...)
		buf[corrupt] ^= 1 << uint(c.rng.Intn(8))
	}
	c.mu.Unlock()

	if buf != nil {
		if _, err := c.Conn.Write(buf); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return c.Conn.Write(p)
}

func (n *Net) note(delay time.Duration, stall, reset, drop, corrupt bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.Frames++
	n.stats.TotalDelay += delay
	switch {
	case stall:
		n.stats.Stalls++
	case reset:
		n.stats.Resets++
	case drop:
		n.stats.Dropped++
	case corrupt:
		n.stats.Corrupted++
	}
}
