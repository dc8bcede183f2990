package feed

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"forkwatch/internal/metrics"
)

func testHead(chain string, n uint64) Event {
	return Event{Kind: KindHead, Head: &HeadEvent{Chain: chain, Number: n, Difficulty: "1"}}
}

// TestFeedCursorResumeAndGap exercises the replay ring: resuming from a
// cursor, and gap detection once the cursor falls off the ring.
func TestFeedCursorResumeAndGap(t *testing.T) {
	reg := metrics.NewRegistry()
	f := NewFeed(reg, 8)
	for n := uint64(0); n < 4; n++ {
		f.Publish(testHead("ONE", n))
	}
	evs, next, gap := f.ReadSince(StreamEvents, "", 0, 0)
	if gap || len(evs) != 4 || next != 4 {
		t.Fatalf("read = %d events, next %d, gap %v", len(evs), next, gap)
	}
	// Resume from the returned cursor: nothing new.
	evs, next2, gap := f.ReadSince(StreamEvents, "", next, 0)
	if len(evs) != 0 || next2 != next || gap {
		t.Fatalf("resume read = %d events, next %d", len(evs), next2)
	}
	// Overflow the ring: cursor 0 is now behind the ring start.
	for n := uint64(4); n < 20; n++ {
		f.Publish(testHead("ONE", n))
	}
	evs, _, gap = f.ReadSince(StreamEvents, "", 0, 0)
	if !gap {
		t.Fatal("expected gap after ring overflow")
	}
	if len(evs) != 8 {
		t.Fatalf("post-gap read = %d events, want the ring's 8", len(evs))
	}
	if v, _ := reg.Snapshot()["live.events"].(uint64); v != 20 {
		t.Errorf("live.events = %v, want 20", reg.Snapshot()["live.events"])
	}
}

// TestFeedRingWraps publishes three rings' worth of events through a
// small ring: a read returns exactly the last cap events in order, gap is
// set only for cursors behind the window, and publishing into a full
// ring allocates nothing.
func TestFeedRingWraps(t *testing.T) {
	const size = 16
	f := NewFeed(nil, size)
	for n := uint64(0); n < 3*size; n++ {
		if seq := f.Publish(testHead("ONE", n)); seq != n {
			t.Fatalf("publish %d got seq %d", n, seq)
		}
	}
	const start = 2 * size
	for cursor := uint64(0); cursor <= 3*size+2; cursor++ {
		evs, next, gap := f.ReadSince(StreamEvents, "", cursor, 4*size)
		from := max(cursor, start)
		if gap != (cursor < start) {
			t.Fatalf("cursor %d: gap = %v", cursor, gap)
		}
		if want := max(from, 3*size); next != want {
			t.Fatalf("cursor %d: next = %d, want %d", cursor, next, want)
		}
		if want := int(3*size) - int(min(from, 3*size)); len(evs) != want {
			t.Fatalf("cursor %d: %d events, want %d", cursor, len(evs), want)
		}
		for i, ev := range evs {
			if want := from + uint64(i); ev.Seq != want || ev.Head.Number != want {
				t.Fatalf("cursor %d: event %d is seq %d head %d, want %d", cursor, i, ev.Seq, ev.Head.Number, want)
			}
		}
	}
	ev := testHead("ONE", 0)
	if allocs := testing.AllocsPerRun(1000, func() { f.Publish(ev) }); allocs != 0 {
		t.Errorf("Publish on a full ring allocates %v times per call", allocs)
	}
}

// TestFeedWaitAndClose: a waiter at the head wakes on the next publish,
// a cursor already behind the head never waits, and Close wakes everyone
// and turns Publish into a no-op.
func TestFeedWaitAndClose(t *testing.T) {
	f := NewFeed(nil, 4)
	w := f.WaitChan(0)
	select {
	case <-w:
		t.Fatal("woke before any publish")
	default:
	}
	f.Publish(testHead("ONE", 0))
	<-w
	<-f.WaitChan(0)

	w = f.WaitChan(1)
	f.Close()
	f.Close()
	<-w
	<-f.WaitChan(99)
	if seq := f.Publish(testHead("ONE", 1)); seq != 1 || f.Seq() != 1 {
		t.Errorf("publish after close: returned %d, Seq %d", seq, f.Seq())
	}
}

// TestFeedRingModel drives the feed and a plain slice model with the same
// seeded interleaving of publishes, cursor reads (every stream and chain
// filter; cursors behind the window, inside it, at the head and past it)
// and waits, across several wraps of a small ring.
func TestFeedRingModel(t *testing.T) {
	const size = 32
	streams := []string{StreamEvents, StreamNewHeads, StreamNewDays, StreamEchoes}
	chains := []string{"", "ONE", "TWO"}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := NewFeed(nil, size)
		var model []Event // every event ever published; model[i].Seq == i
		for step := 0; step < 40*size; step++ {
			switch rng.Intn(4) {
			case 0, 1: // publish
				var ev Event
				switch rng.Intn(4) {
				case 0:
					ev = Event{Kind: KindDay, Day: &DayEvent{Day: len(model)}}
				case 1:
					ev = Event{Kind: KindEcho, Echo: &EchoEvent{Day: len(model)}}
				default:
					ev = testHead(chains[1+rng.Intn(2)], uint64(len(model)))
				}
				ev.Seq = f.Publish(ev)
				if ev.Seq != uint64(len(model)) {
					t.Fatalf("seed %d step %d: published seq %d, model %d", seed, step, ev.Seq, len(model))
				}
				model = append(model, ev)
			case 2: // read
				head := uint64(len(model))
				start := head - min(head, size)
				var cursor uint64
				switch rng.Intn(4) {
				case 0:
					cursor = uint64(rng.Int63n(int64(start) + 1)) // behind (or at) the window
				case 1:
					cursor = start + uint64(rng.Int63n(int64(head-start)+1)) // inside
				case 2:
					cursor = head
				default:
					cursor = head + 1 + uint64(rng.Intn(5))
				}
				stream, chain := streams[rng.Intn(len(streams))], chains[rng.Intn(len(chains))]
				limit := 1 + rng.Intn(size+4)

				wantGap := cursor < start
				wantNext := max(cursor, start)
				var want []Event
				for wantNext < head && len(want) < limit {
					ev := model[wantNext]
					wantNext++
					if Match(stream, chain, ev) {
						want = append(want, ev)
					}
				}
				got, next, gap := f.ReadSince(stream, chain, cursor, limit)
				if gap != wantGap || next != wantNext || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: ReadSince(%s, %q, %d, %d) with window [%d, %d)\n got  %d events, next %d, gap %v\n want %d events, next %d, gap %v",
						seed, step, stream, chain, cursor, limit, start, head, len(got), next, gap, len(want), wantNext, wantGap)
				}
			case 3: // wait
				head := uint64(len(model))
				cursor := head - min(head, uint64(rng.Intn(3))) + uint64(rng.Intn(3))
				select {
				case <-f.WaitChan(cursor):
					if cursor >= head {
						t.Fatalf("seed %d step %d: WaitChan(%d) ready at head %d", seed, step, cursor, head)
					}
				default:
					if cursor < head {
						t.Fatalf("seed %d step %d: WaitChan(%d) blocks at head %d", seed, step, cursor, head)
					}
				}
			}
		}
		if len(model) < 3*size {
			t.Fatalf("seed %d: only %d events, the ring never wrapped three times", seed, len(model))
		}
	}
}

// TestFeedConcurrentReaders runs one publisher against several cursor
// followers over a ring far smaller than the run (run it under -race):
// each follower sleeps on WaitChan and reads to the head. A follower may
// fall off the ring — only then may sequence numbers jump, and the read
// must say so — but every event it gets carries the payload published
// under that sequence number, in increasing order, up to EOF.
func TestFeedConcurrentReaders(t *testing.T) {
	const total = 20000
	f := NewFeed(nil, 64)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor uint64
			for {
				<-f.WaitChan(cursor)
				evs, next, gap := f.ReadSince(StreamEvents, "", cursor, 16)
				for i, ev := range evs {
					if !gap && ev.Seq != cursor+uint64(i) {
						t.Errorf("read seq %d at position %d without a gap", ev.Seq, cursor+uint64(i))
						return
					}
					if ev.Seq < cursor || (i > 0 && ev.Seq != evs[i-1].Seq+1) {
						t.Errorf("read seq %d out of order (cursor %d)", ev.Seq, cursor)
						return
					}
					if ev.Kind == KindEOF {
						return
					}
					if ev.Head.Number != ev.Seq {
						t.Errorf("seq %d carries head %d", ev.Seq, ev.Head.Number)
						return
					}
				}
				cursor = next
			}
		}()
	}
	for n := uint64(0); n < total; n++ {
		f.Publish(testHead("ONE", n))
	}
	f.Publish(Event{Kind: KindEOF})
	wg.Wait()
}

// TestMatchAndValidate pins the stream-matching and validation tables.
func TestMatchAndValidate(t *testing.T) {
	h := Event{Kind: KindHead, Head: &HeadEvent{Chain: "ONE"}}
	d := Event{Kind: KindDay, Day: &DayEvent{}}
	e := Event{Kind: KindEcho, Echo: &EchoEvent{}}
	eof := Event{Kind: KindEOF}
	cases := []struct {
		stream, chain string
		ev            Event
		want          bool
	}{
		{StreamEvents, "", h, true},
		{StreamEvents, "", d, true},
		{StreamNewHeads, "", h, true},
		{StreamNewHeads, "ONE", h, true},
		{StreamNewHeads, "TWO", h, false},
		{StreamNewHeads, "", d, false},
		{StreamNewDays, "", d, true},
		{StreamNewDays, "", h, false},
		{StreamEchoes, "", e, true},
		{StreamEchoes, "", h, false},
		{StreamEchoes, "", eof, true},
		{StreamNewHeads, "TWO", eof, true},
	}
	for i, c := range cases {
		if got := Match(c.stream, c.chain, c.ev); got != c.want {
			t.Errorf("case %d: Match(%s,%s,%s) = %v", i, c.stream, c.chain, c.ev.Kind, got)
		}
	}
	if err := (Event{Kind: KindHead}).Validate(); err == nil {
		t.Error("head without payload should not validate")
	}
	if err := (Event{Kind: "nope"}).Validate(); err == nil {
		t.Error("unknown kind should not validate")
	}
	if !ValidStream(StreamEchoes) || ValidStream("bogus") {
		t.Error("ValidStream table wrong")
	}
}
