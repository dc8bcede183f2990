package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/big"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"forkwatch/internal/chain"
	"forkwatch/internal/types"
)

// The delivery contract (Observer, Engine.Run): observers see one serial
// stream whatever the parallelism, no event is recycled while it is being
// delivered, Run returns only after the last call however it ends, and an
// observer's panic reaches Run's caller.

// goid returns the calling goroutine's id, read from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	n, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return n
}

// digestObserver folds every call, field by field at call time, into one
// running hash, and notes the goroutines that made the calls and whether
// two calls ever overlapped.
type digestObserver struct {
	h       hash.Hash
	buf     []byte
	calls   int
	txs     int
	inCall  atomic.Int32
	overlap atomic.Bool
	gids    map[uint64]bool
}

func newDigestObserver() *digestObserver {
	return &digestObserver{h: sha256.New(), gids: map[uint64]bool{}}
}

// enter marks a call in progress; every 256th call and every OnDay also
// records the calling goroutine (reading a stack per block would dominate
// the run).
func (d *digestObserver) enter(day bool) {
	if d.inCall.Add(1) != 1 {
		d.overlap.Store(true)
	}
	if day || d.calls%256 == 0 {
		d.gids[goid()] = true
	}
	d.calls++
}

func (d *digestObserver) leave() {
	d.h.Write(d.buf)
	d.inCall.Add(-1)
}

func (d *digestObserver) OnBlock(ev *BlockEvent) {
	d.enter(false)
	defer d.leave()
	b := append(d.buf[:0], 'B')
	b = binary.AppendVarint(b, int64(ev.Day))
	b = append(b, ev.Chain...)
	b = binary.AppendUvarint(b, ev.Number)
	b = binary.AppendUvarint(b, ev.Time)
	b = binary.AppendUvarint(b, ev.Delta)
	b = append(b, ev.Difficulty.String()...)
	b = append(b, ev.Coinbase.Bytes()...)
	b = binary.AppendUvarint(b, uint64(len(ev.Txs)))
	d.txs += len(ev.Txs)
	for _, tx := range ev.Txs {
		b = append(b, tx.Hash.Bytes()...)
		b = append(b, tx.From.Bytes()...)
		b = append(b, boolByte(tx.Contract), boolByte(tx.ChainBound))
	}
	d.buf = b
}

func (d *digestObserver) OnDay(ev *DayEvent) {
	d.enter(true)
	defer d.leave()
	b := append(d.buf[:0], 'D')
	b = binary.AppendVarint(b, int64(ev.Day))
	for _, p := range ev.Partitions {
		b = append(b, p.Name...)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.USD))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Hashrate))
		b = append(b, p.Difficulty.String()...)
	}
	d.buf = b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// threeWaySpec is a three-way partition list in forksim's -partitions form.
const threeWaySpec = "MAIN:dao=true;CLASSIC:share=0.3,behaviour=mixed,ideological=0.4;THIRD:share=0.1,behaviour=ideological"

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestObserversSeeOneSerialStream: at Parallelism 1, 2 and 4 observers get
// the same calls with the same contents in the same order, from one
// goroutine at a time, that goroutine being Run's caller at Parallelism 1.
// Under the race detector the multi-day inputs run 8 hour-long days: the
// detector needs hand-offs between goroutines, not blocks, and -count
// repeats the draw. The dense input is one full day at mainnet-2016 rates,
// so its day 0 mints and signs thousands of transactions per partition.
func TestObserversSeeOneSerialStream(t *testing.T) {
	days, dayLength := 30, uint64(0)
	if testing.Short() {
		days = 8
	}
	if raceEnabled {
		days, dayLength = 8, 3600
	}
	three, err := ParsePartitionSpecs(threeWaySpec)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name   string
		seeds  int64
		minTxs int // delivered over the run, so the input is not degenerate
		build  func(seed int64) *Scenario
	}{
		{"two-way", 4, 1, func(seed int64) *Scenario { return NewScenario(seed, days) }},
		{"three-way", 4, 1, func(seed int64) *Scenario {
			sc := NewScenario(seed, days)
			sc.Partitions = three
			return sc
		}},
		{"dense day", 1, 10_000, func(seed int64) *Scenario {
			sc := NewScenario(seed, 1)
			sc.ETHTxPerDay, sc.ETCTxPerDay = 40_000, 16_000
			return sc
		}},
	}
	for _, in := range inputs {
		for seed := int64(1); seed <= in.seeds; seed++ {
			var want []byte
			for _, par := range []int{1, 2, 4} {
				sc := in.build(seed)
				sc.Parallelism = par
				if dayLength > 0 && sc.Days > 1 {
					sc.DayLength = dayLength
				}
				eng, err := New(sc)
				if err != nil {
					t.Fatal(err)
				}
				obs := newDigestObserver()
				eng.AddObserver(obs)
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s seed %d parallelism %d", in.name, seed, par)
				if obs.overlap.Load() {
					t.Errorf("%s: two observer calls overlapped", label)
				}
				if len(obs.gids) != 1 {
					t.Errorf("%s: calls came from %d goroutines", label, len(obs.gids))
				}
				if obs.txs < in.minTxs {
					t.Errorf("%s: %d transactions delivered, want at least %d", label, obs.txs, in.minTxs)
				}
				if par == 1 && !obs.gids[goid()] {
					t.Errorf("%s: calls did not come from Run's goroutine", label)
				}
				sum := obs.h.Sum(nil)
				if want == nil {
					want = sum
				} else if !bytes.Equal(sum, want) {
					t.Errorf("%s: stream digest %x, want %x (parallelism 1)", label, sum[:8], want[:8])
				}
			}
		}
	}
}

// seenEvent is what an observer saw of one event at OnBlock time.
type seenEvent struct {
	ev     *BlockEvent
	chain  string
	day    int
	number uint64
	time   uint64
	diff   *big.Int
	txs    []TxInfo
}

// slowObserver sleeps in OnBlock, so the next day mines while it still
// holds this day's events, and in OnDay re-checks every event of the day
// against what it saw.
type slowObserver struct {
	t      *testing.T
	sleep  time.Duration
	seen   []seenEvent
	blocks int
}

func (s *slowObserver) OnBlock(ev *BlockEvent) {
	s.seen = append(s.seen, seenEvent{
		ev: ev, chain: ev.Chain, day: ev.Day, number: ev.Number, time: ev.Time,
		diff: types.BigCopy(ev.Difficulty), txs: append([]TxInfo(nil), ev.Txs...),
	})
	if s.blocks%16 == 0 {
		time.Sleep(s.sleep)
	}
	s.blocks++
}

func (s *slowObserver) OnDay(ev *DayEvent) {
	for _, w := range s.seen {
		g := w.ev
		if g.Chain != w.chain || g.Day != w.day || g.Number != w.number || g.Time != w.time ||
			g.Difficulty.Cmp(w.diff) != 0 || !slices.Equal(g.Txs, w.txs) {
			s.t.Errorf("day %d: %s block %d changed under delivery: now %s day %d block %d",
				ev.Day, w.chain, w.number, g.Chain, g.Day, g.Number)
			break
		}
	}
	s.seen = s.seen[:0]
}

// TestObserversHoldEventsUntilTheDayEnds: an event stays as delivered
// until its day's last observer call, even while the next day mines into
// pooled events.
func TestObserversHoldEventsUntilTheDayEnds(t *testing.T) {
	for _, par := range []int{1, 2} {
		sc := shortScenario(11, 6, ModeFast)
		sc.Parallelism = par
		eng, err := New(sc)
		if err != nil {
			t.Fatal(err)
		}
		obs := &slowObserver{t: t, sleep: 200 * time.Microsecond}
		eng.AddObserver(obs)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if obs.blocks == 0 {
			t.Fatalf("parallelism %d: no blocks delivered", par)
		}
	}
}

// failingLedger fails every MineBlock timed at failFrom or later: the day
// that starts there fails with an error while, at Parallelism >= 2, the
// previous day is still being delivered.
type failingLedger struct {
	Ledger
	failFrom uint64
}

var errDayFailed = errors.New("injected mining failure")

func (l *failingLedger) MineBlock(t uint64, coinbase types.Address, txs []*chain.Transaction) ([]*chain.Transaction, error) {
	if t >= l.failFrom {
		return nil, errDayFailed
	}
	return l.Ledger.MineBlock(t, coinbase, txs)
}

// lateObserver makes each OnDay slow and notes, when it finishes, the day
// it delivered.
type lateObserver struct {
	sleep   time.Duration
	lastDay atomic.Int64
}

func (o *lateObserver) OnBlock(*BlockEvent) {}

func (o *lateObserver) OnDay(ev *DayEvent) {
	time.Sleep(o.sleep)
	o.lastDay.Store(int64(ev.Day))
}

// TestObserversDoneWhenRunReturns: Run returns only after the last
// observer call has finished — at the end of a run, when a day fails with
// an error, and when a chain's storage has died.
func TestObserversDoneWhenRunReturns(t *testing.T) {
	const days, failDay = 5, 3
	cases := []struct {
		name    string
		mode    Mode
		arm     func(e *Engine)
		lastDay int
		wantErr error
	}{
		{name: "run ends", mode: ModeFast, lastDay: days - 1},
		{name: "day fails", mode: ModeFast, lastDay: failDay - 1, wantErr: errDayFailed, arm: func(e *Engine) {
			p := e.parts[0]
			p.ledger = &failingLedger{Ledger: p.ledger, failFrom: e.sc.Epoch + failDay*e.sc.DayLength}
		}},
		// A chain whose store recovery gave up retires; the run goes on to
		// its end with day events for every partition.
		{name: "storage died", mode: ModeFull, lastDay: days - 1, arm: func(e *Engine) {
			e.parts[1].storage.dead = true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := shortScenario(3, days, tc.mode)
			sc.Parallelism = 2
			eng, err := New(sc)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if tc.arm != nil {
				tc.arm(eng)
			}
			obs := &lateObserver{sleep: 20 * time.Millisecond}
			obs.lastDay.Store(-1)
			eng.AddObserver(obs)
			err = eng.Run()
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Run = %v, want %v", err, tc.wantErr)
			}
			if got := obs.lastDay.Load(); got != int64(tc.lastDay) {
				t.Errorf("Run returned when day %d was the last delivered, want day %d", got, tc.lastDay)
			}
		})
	}
}

// TestObserversPanicReachesRunCaller: an observer's panic surfaces from
// Run on the caller's goroutine, with its value, at any parallelism, and
// no delivery runs on after Run has panicked.
func TestObserversPanicReachesRunCaller(t *testing.T) {
	type boom struct{ day int }
	for _, par := range []int{1, 2} {
		sc := shortScenario(5, 6, ModeFast)
		sc.Parallelism = par
		eng, err := New(sc)
		if err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		eng.AddObserver(&observerFunc{onBlock: func(ev *BlockEvent) {
			calls.Add(1)
			if ev.Day == 2 {
				panic(boom{ev.Day})
			}
		}})
		got := func() (r any) {
			defer func() { r = recover() }()
			eng.Run()
			return nil
		}()
		if got != (boom{2}) {
			t.Errorf("parallelism %d: Run's caller recovered %v, want boom{2}", par, got)
		}
		n := calls.Load()
		time.Sleep(10 * time.Millisecond)
		if calls.Load() != n {
			t.Errorf("parallelism %d: observer calls went on after Run panicked", par)
		}
	}
}
