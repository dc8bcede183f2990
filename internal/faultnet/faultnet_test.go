package faultnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"forkwatch/internal/clock"
	"forkwatch/internal/p2p"
)

// accept runs an accept loop that drains every accepted conn into the
// returned buffer (net.Pipe writes only progress when read).
func accept(t *testing.T, ln net.Listener) *lockedBuffer {
	t.Helper()
	buf := &lockedBuffer{}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				chunk := make([]byte, 4096)
				for {
					n, err := conn.Read(chunk)
					if n > 0 {
						buf.Write(chunk[:n])
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return buf
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

// runSchedule dials through a fresh fault net with the given seed and
// pushes a fixed frame sequence, returning the fault counters and every
// byte that arrived.
func runSchedule(t *testing.T, seed int64) (Stats, []byte) {
	t.Helper()
	mem := p2p.NewMemNet()
	ln, err := mem.Listen("sink")
	if err != nil {
		t.Fatal(err)
	}
	arrived := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		b, _ := io.ReadAll(conn)
		arrived <- b
	}()
	clk := clock.NewFake()
	fnet := New(mem, Faults{
		Seed:        seed,
		Latency:     time.Millisecond,
		Jitter:      10 * time.Millisecond,
		DropRate:    0.2,
		CorruptRate: 0.05,
		Clock:       clk,
	})
	conn, err := fnet.Endpoint("src").Dial("sink")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 300; i++ {
			frame := make([]byte, 16+i%64)
			for j := range frame {
				frame[j] = byte(i + j)
			}
			if _, err := conn.Write(frame); err != nil {
				done <- fmt.Errorf("write %d: %v", i, err)
				return
			}
		}
		done <- conn.Close()
	}()
	// Each frame's delay is a timer on the fake clock: step past the
	// longest one (latency + jitter) whenever the writer waits.
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return fnet.Stats(), <-arrived
		default:
		}
		if clk.Pending() > 0 {
			clk.Advance(11 * time.Millisecond)
		} else {
			runtime.Gosched()
		}
	}
}

// TestFaultScheduleDeterministic: the same seed over the same dial and
// write sequence yields the identical fault schedule — the same frames
// dropped and corrupted, the same total delay, the same bytes delivered —
// while a different seed does not.
func TestFaultScheduleDeterministic(t *testing.T) {
	statsA, bytesA := runSchedule(t, 42)
	statsB, bytesB := runSchedule(t, 42)
	if statsA != statsB || !bytes.Equal(bytesA, bytesB) {
		t.Fatalf("same seed, different schedules: %+v vs %+v (%d vs %d bytes)", statsA, statsB, len(bytesA), len(bytesB))
	}
	if statsA.Frames != 300 {
		t.Fatalf("%d frames counted, want 300", statsA.Frames)
	}
	if statsA.Dropped < 30 || statsA.Dropped > 90 {
		t.Errorf("20%% drop rate produced %d/300 drops", statsA.Dropped)
	}
	if statsA.Corrupted == 0 {
		t.Error("5% corruption rate corrupted nothing in 300 frames")
	}
	statsC, bytesC := runSchedule(t, 43)
	if statsA == statsC && bytes.Equal(bytesA, bytesC) {
		t.Error("different seeds produced identical fault schedules")
	}
}

// TestPartitionAndHeal: a scripted bisection refuses new dials across
// the cut, resets live crossing connections, and heals on demand.
func TestPartitionAndHeal(t *testing.T) {
	mem := p2p.NewMemNet()
	lnB, err := mem.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	accept(t, lnB)
	fnet := New(mem, Faults{})
	epA := fnet.Endpoint("a")

	conn, err := epA.Dial("b")
	if err != nil {
		t.Fatalf("pre-partition dial: %v", err)
	}
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatalf("pre-partition write: %v", err)
	}

	fnet.PartitionSets([]string{"a"}, []string{"b"})
	if _, err := epA.Dial("b"); !errors.Is(err, ErrPartitioned) {
		t.Errorf("dial across partition: err = %v, want ErrPartitioned", err)
	}
	// The live crossing connection was reset.
	if _, err := conn.Write([]byte("x")); err == nil {
		t.Error("write on partitioned conn should fail")
	}

	fnet.Heal()
	conn2, err := epA.Dial("b")
	if err != nil {
		t.Fatalf("post-heal dial: %v", err)
	}
	conn2.Close()
	if fnet.Stats().Refusals != 1 {
		t.Errorf("refusals = %d, want 1", fnet.Stats().Refusals)
	}
}

// TestPartitionDuringDial: a partition installed while a dial is in
// flight (after its partition check, before its conn exists) still
// refuses that dial; it must not yield a live conn across the cut.
func TestPartitionDuringDial(t *testing.T) {
	mem := p2p.NewMemNet()
	ln, err := mem.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	accept(t, ln)
	var fnet *Net
	fnet = New(p2p.DialerFunc(func(addr string) (net.Conn, error) {
		fnet.PartitionSets([]string{"a"}, []string{"b"})
		return mem.Dial(addr)
	}), Faults{})
	if conn, err := fnet.Endpoint("a").Dial("b"); !errors.Is(err, ErrPartitioned) {
		if conn != nil {
			conn.Close()
		}
		t.Fatalf("dial across a partition installed mid-dial: err = %v, want ErrPartitioned", err)
	}
	if got := fnet.Stats().Refusals; got != 1 {
		t.Errorf("refusals = %d, want 1", got)
	}
}

// TestDeadlineForwarding: a fault conn keeps net.Conn's deadline
// contract by forwarding deadlines to the wrapped conn, MemNet's pipe
// halves here. The wire itself sets none (its stall timers close the
// conn on the clock), but a caller of the wrapper may.
func TestDeadlineForwarding(t *testing.T) {
	mem := p2p.NewMemNet()
	ln, err := mem.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	// Accept but never read or write: both directions stall naturally.
	go func() {
		for {
			if _, err := ln.Accept(); err != nil {
				return
			}
		}
	}()
	fnet := New(mem, Faults{})
	conn, err := fnet.Endpoint("cli").Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	conn.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := conn.Read(make([]byte, 1)); !isTimeout(err) {
		t.Errorf("read past deadline: err = %v, want timeout", err)
	}
	conn.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := conn.Write(make([]byte, 1)); !isTimeout(err) {
		t.Errorf("write past deadline: err = %v, want timeout", err)
	}
}

// TestStallBlocksUntilClose: a slow-loris conn never completes a write
// after its first StallWrites frames; only closing the conn (what a p2p
// peer's write-stall timer does) releases the writer.
func TestStallBlocksUntilClose(t *testing.T) {
	mem := p2p.NewMemNet()
	ln, err := mem.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	accept(t, ln)
	fnet := New(mem, Faults{StallWrites: 1})
	conn, err := fnet.Endpoint("cli").Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("first frame passes")); err != nil {
		t.Fatalf("pre-stall write: %v", err)
	}
	res := make(chan error, 1)
	go func() {
		_, err := conn.Write([]byte("stalled"))
		res <- err
	}()
	select {
	case err := <-res:
		t.Fatalf("stalled write returned %v before the conn closed", err)
	case <-time.After(20 * time.Millisecond):
	}
	conn.Close()
	if err := <-res; !errors.Is(err, ErrConnClosed) {
		t.Errorf("stalled write after close: err = %v, want ErrConnClosed", err)
	}
	if fnet.Stats().Stalls != 1 {
		t.Errorf("stalls = %d, want 1", fnet.Stats().Stalls)
	}
}

// TestDropAndReset: a full-drop plan delivers nothing while reporting
// success; a full-reset plan kills the connection on first write.
func TestDropAndReset(t *testing.T) {
	mem := p2p.NewMemNet()
	ln, err := mem.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	sink := accept(t, ln)

	drops := New(mem, Faults{DropRate: 1})
	conn, err := drops.Endpoint("cli").Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if n, err := conn.Write([]byte("lost")); err != nil || n != 4 {
			t.Fatalf("dropped write reported (%d, %v)", n, err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if sink.Len() != 0 {
		t.Errorf("%d bytes leaked through a 100%% drop plan", sink.Len())
	}
	conn.Close()

	resets := New(mem, Faults{ResetRate: 1})
	conn2, err := resets.Endpoint("cli").Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Write([]byte("boom")); !errors.Is(err, ErrInjectedReset) {
		t.Errorf("reset write: err = %v, want ErrInjectedReset", err)
	}
	if _, err := conn2.Write([]byte("after")); err == nil {
		t.Error("write after injected reset should fail")
	}
}

// TestBandwidthCap: serialization delay scales with frame size, timed
// on the net's clock: a 500-byte frame at 1000 B/s is held exactly
// 500 ms, and a close releases a held write without leaving its timer.
func TestBandwidthCap(t *testing.T) {
	mem := p2p.NewMemNet()
	ln, err := mem.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	accept(t, ln)
	clk := clock.NewFake()
	fnet := New(mem, Faults{BandwidthBps: 1000, Clock: clk})
	conn, err := fnet.Endpoint("cli").Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	write := func() chan error {
		res := make(chan error, 1)
		go func() {
			_, err := conn.Write(make([]byte, 500))
			res <- err
		}()
		for clk.Pending() == 0 {
			runtime.Gosched()
		}
		return res
	}

	res := write()
	clk.Advance(499 * time.Millisecond)
	select {
	case err := <-res:
		t.Fatalf("500B at 1000B/s returned (%v) after 499ms", err)
	case <-time.After(10 * time.Millisecond):
	}
	clk.Advance(time.Millisecond)
	if err := <-res; err != nil {
		t.Fatal(err)
	}

	res = write()
	conn.Close()
	if err := <-res; !errors.Is(err, ErrConnClosed) {
		t.Errorf("held write after close: err = %v, want ErrConnClosed", err)
	}
	if clk.Pending() != 0 {
		t.Errorf("%d timers pending after the close", clk.Pending())
	}
}

// TestCorruption: with corruption certain, delivered bytes differ from
// the sent frame in exactly one bit.
func TestCorruption(t *testing.T) {
	mem := p2p.NewMemNet()
	ln, err := mem.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	conns := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			conns <- c
		}
	}()
	fnet := New(mem, Faults{Seed: 7, CorruptRate: 1})
	conn, err := fnet.Endpoint("cli").Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sent := []byte("the quick brown fox")
	go conn.Write(sent)
	server := <-conns
	got := make([]byte, len(sent))
	if _, err := server.Read(got); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range sent {
		if sent[i] != got[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("corruption touched %d bytes, want exactly 1 (got %q)", diff, got)
	}
}

func TestParseSpec(t *testing.T) {
	f, err := ParseSpec("seed=42, latency=20ms, jitter=200ms, drop=0.2, corrupt=0.01, reset=0.001, bw=1048576, stall=9")
	if err != nil {
		t.Fatal(err)
	}
	if f.Seed != 42 || f.Latency != 20*time.Millisecond || f.Jitter != 200*time.Millisecond ||
		f.DropRate != 0.2 || f.CorruptRate != 0.01 || f.ResetRate != 0.001 ||
		f.BandwidthBps != 1<<20 || f.StallWrites != 9 {
		t.Errorf("ParseSpec = %+v", f)
	}
	if !f.Enabled() {
		t.Error("parsed plan should report Enabled")
	}
	if empty, err := ParseSpec(""); err != nil || empty.Enabled() {
		t.Errorf("empty spec: %+v, %v", empty, err)
	}
	for _, bad := range []string{"drop=1.5", "nope=1", "latency", "seed=abc",
		// Each of these parsed to a plan that injects nothing.
		"drop=NaN", "corrupt=nan", "latency=-1s", "jitter=-2ms", "bw=-5", "stall=-3"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// FuzzParseSpec: parsing never panics, and every accepted plan has each
// rate in [0,1] and no negative duration, bandwidth or stall.
func FuzzParseSpec(f *testing.F) {
	f.Add("seed=42,latency=20ms,jitter=200ms,drop=0.2,corrupt=0.01,reset=0.001,bw=1048576,stall=9")
	f.Add("drop=NaN,corrupt=nan")
	f.Add("latency=-1s,jitter=-2ms,bw=-5,stall=-3")
	f.Add(" , =,reset=1e-3")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil {
			return
		}
		for _, r := range []float64{p.DropRate, p.CorruptRate, p.ResetRate} {
			if math.IsNaN(r) || r < 0 || r > 1 {
				t.Fatalf("ParseSpec(%q) accepted rate %v: %+v", spec, r, p)
			}
		}
		if p.Latency < 0 || p.Jitter < 0 || p.BandwidthBps < 0 || p.StallWrites < 0 {
			t.Fatalf("ParseSpec(%q) accepted a negative delay, bandwidth or stall: %+v", spec, p)
		}
	})
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
