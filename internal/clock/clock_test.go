package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFakeFiresInDeadlineOrder: Advance fires due timers by deadline,
// ties in arming order, with Now at each timer's deadline; timers armed
// by a fired function fire in the same Advance when they fall due.
func TestFakeFiresInDeadlineOrder(t *testing.T) {
	f := NewFake()
	start := f.Now()
	var got []string
	at := func(name string) func() {
		return func() { got = append(got, name+"@"+f.Now().Sub(start).String()) }
	}
	f.AfterFunc(3*time.Second, at("c"))
	f.AfterFunc(time.Second, at("a"))
	f.AfterFunc(time.Second, at("b"))
	f.AfterFunc(2*time.Second, func() {
		at("chain")()
		f.AfterFunc(500*time.Millisecond, at("armed"))
	})
	f.AfterFunc(10*time.Second, at("late"))

	f.Advance(3 * time.Second)
	want := []string{"a@1s", "b@1s", "chain@2s", "armed@2.5s", "c@3s"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if d := f.Now().Sub(start); d != 3*time.Second {
		t.Fatalf("Now after Advance(3s) = start+%v", d)
	}
	if f.Pending() != 1 {
		t.Fatalf("Pending = %d, want the 10s timer", f.Pending())
	}
}

// TestFakeStop: a stopped timer never fires and leaves no pending entry;
// stopping a fired timer reports false.
func TestFakeStop(t *testing.T) {
	f := NewFake()
	fired := 0
	stopped := f.AfterFunc(time.Second, func() { fired++ })
	kept := f.AfterFunc(time.Second, func() { fired++ })
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop of a pending timer must report true once")
	}
	f.Advance(time.Second)
	if fired != 1 {
		t.Fatalf("fired %d timers, want 1", fired)
	}
	if kept.Stop() {
		t.Fatal("Stop of a fired timer reported true")
	}
	if f.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", f.Pending())
	}
}

// TestWait: Wait returns true once the clock passes d, false when done
// closes first, and leaves no timer either way.
func TestWait(t *testing.T) {
	f := NewFake()
	res := make(chan bool)
	go func() { res <- Wait(f, time.Minute, nil) }()
	for f.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	f.Advance(time.Minute)
	if !<-res {
		t.Fatal("Wait reported false after its full duration")
	}

	done := make(chan struct{})
	go func() { res <- Wait(f, time.Minute, done) }()
	for f.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(done)
	if <-res {
		t.Fatal("Wait reported true after done closed")
	}
	if f.Pending() != 0 {
		t.Fatalf("Pending = %d after Wait, want 0", f.Pending())
	}
	if Or(nil) != Real || Or(f) != f {
		t.Fatal("Or must default nil to Real and keep a given clock")
	}
}

// TestFakeConcurrent: goroutines arm and stop timers while another
// advances the clock; every timer not stopped in time fires exactly
// once, and none is left pending.
func TestFakeConcurrent(t *testing.T) {
	f := NewFake()
	const workers, timers = 8, 200
	var fired, stopped atomic.Int64
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				f.Advance(time.Millisecond)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < timers; i++ {
				tm := f.AfterFunc(time.Duration(i%5)*time.Millisecond, func() { fired.Add(1) })
				if (w+i)%3 == 0 && tm.Stop() {
					stopped.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	f.Advance(time.Second)
	if got := fired.Load() + stopped.Load(); got != workers*timers {
		t.Fatalf("%d fired + %d stopped = %d, want %d", fired.Load(), stopped.Load(), got, workers*timers)
	}
	if f.Pending() != 0 {
		t.Fatalf("Pending = %d after the last Advance", f.Pending())
	}
}
