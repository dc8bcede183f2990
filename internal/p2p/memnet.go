package p2p

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// MemNet is an in-memory transport: a registry of listeners dialable by
// name over net.Pipe. It lets the E1 node-census experiment run hundreds
// of fully wired nodes without consuming OS sockets, while exercising the
// exact same framing and handshake code paths as TCP (cmd/forknode uses
// real TCP with the same Server).
type MemNet struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

// NewMemNet returns an empty in-memory network.
func NewMemNet() *MemNet {
	return &MemNet{listeners: make(map[string]*memListener)}
}

// ErrAddrInUse reports a duplicate Listen address.
var ErrAddrInUse = errors.New("memnet: address already in use")

// ErrConnRefused reports a dial to an address nobody listens on.
var ErrConnRefused = errors.New("memnet: connection refused")

// Listen registers a listener under addr.
func (m *MemNet) Listen(addr string) (net.Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.listeners[addr]; dup {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	ln := &memListener{
		net:    m,
		addr:   addr,
		accept: make(chan net.Conn),
		closed: make(chan struct{}),
	}
	m.listeners[addr] = ln
	return ln, nil
}

// Dial connects to a registered listener. The returned conns are
// net.Pipe halves: unbuffered, so a write blocks until the other side
// reads it. The peer loops bound stalls with clock timers that close the
// conn, never with conn deadlines, so the same code runs over MemNet,
// faultnet and TCP on a real or a fake clock.
func (m *MemNet) Dial(addr string) (net.Conn, error) {
	m.mu.Lock()
	ln, ok := m.listeners[addr]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
	local, remote := net.Pipe()
	select {
	case ln.accept <- remote:
		return local, nil
	case <-ln.closed:
		local.Close()
		remote.Close()
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
}

func (m *MemNet) remove(addr string) {
	m.mu.Lock()
	delete(m.listeners, addr)
	m.mu.Unlock()
}

type memListener struct {
	net    *MemNet
	addr   string
	accept chan net.Conn
	closed chan struct{}
	once   sync.Once
}

// Accept implements net.Listener.
func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener.
func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.net.remove(l.addr)
	})
	return nil
}

// Addr implements net.Listener.
func (l *memListener) Addr() net.Addr { return memAddr(l.addr) }

type memAddr string

// Network implements net.Addr.
func (a memAddr) Network() string { return "mem" }

// String implements net.Addr.
func (a memAddr) String() string { return string(a) }
