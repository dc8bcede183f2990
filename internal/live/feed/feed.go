// Package feed is the wire layer of the live measurement plane: a
// wire-codable Event model carrying exactly what the engine's
// day-barrier observer delivery carries (heads with their mined
// transactions, per-day economics), in the same total order, plus the
// Feed broker — a bounded circular replay ring read by cursor, metered
// through internal/metrics.
//
// It is deliberately a leaf package (no internal/export dependency) so
// the RPC serving layer can import it; the analyzer that turns events
// into observables lives one level up in internal/live.
package feed

import (
	"encoding/hex"
	"fmt"
	"math/big"

	"forkwatch/internal/sim"
)

// Event kinds.
const (
	KindHead = "head" // one mined block, with its transactions
	KindDay  = "day"  // end-of-day economics, one entry per partition
	KindEcho = "echo" // analyzer-derived cross-partition echo candidate
	KindEOF  = "eof"  // the run completed; no further events follow
)

// Stream names for subscriptions.
const (
	StreamEvents   = "events"        // the full firehose (heads + days + echoes)
	StreamNewHeads = "newHeads"      // head events, filtered to the route's chain
	StreamNewDays  = "newDays"       // day events
	StreamEchoes   = "pendingEchoes" // analyzer-derived echo candidates
)

// ValidStream reports whether name is a subscribable stream.
func ValidStream(name string) bool {
	switch name {
	case StreamEvents, StreamNewHeads, StreamNewDays, StreamEchoes:
		return true
	}
	return false
}

// Event is one entry in the measurement feed. Exactly one of Head, Day
// and Echo is set, per Kind; Seq is the feed's global sequence number,
// assigned at publish.
type Event struct {
	Seq  uint64     `json:"seq"`
	Kind string     `json:"kind"`
	Head *HeadEvent `json:"head,omitempty"`
	Day  *DayEvent  `json:"day,omitempty"`
	Echo *EchoEvent `json:"echo,omitempty"`
}

// TxInfo is the wire form of one mined transaction. Hash and From are
// 0x-hex so the event JSON-round-trips exactly.
type TxInfo struct {
	Hash       string `json:"hash"`
	From       string `json:"from"`
	Contract   bool   `json:"contract,omitempty"`
	ChainBound bool   `json:"chainBound,omitempty"`
}

// HeadEvent is the wire form of sim.BlockEvent. Difficulty is a decimal
// string (big.Int round-trips exactly through it).
type HeadEvent struct {
	Chain      string   `json:"chain"`
	Day        int      `json:"day"`
	Number     uint64   `json:"number"`
	Time       uint64   `json:"timestamp"`
	Delta      uint64   `json:"delta"`
	Difficulty string   `json:"difficulty"`
	Coinbase   string   `json:"coinbase"`
	Txs        []TxInfo `json:"txs,omitempty"`
}

// PartitionDay is one partition's slice of a DayEvent. USD and Hashrate
// round-trip exactly: encoding/json emits the shortest representation
// that parses back to the same float64.
type PartitionDay struct {
	Chain      string  `json:"chain"`
	USD        float64 `json:"usd"`
	Hashrate   float64 `json:"hashrate"`
	Difficulty string  `json:"difficulty"`
}

// DayEvent is the wire form of sim.DayEvent: per-partition economics in
// partition order.
type DayEvent struct {
	Day        int            `json:"day"`
	Partitions []PartitionDay `json:"partitions"`
}

// EchoEvent is an analyzer-derived cross-partition echo candidate: a
// transaction hash seen mined on a second chain after first appearing
// on another (the paper's O5 join, streamed).
type EchoEvent struct {
	Hash       string `json:"hash"`
	From       string `json:"from"`
	FirstChain string `json:"firstChain"`
	FirstDay   int    `json:"firstDay"`
	Chain      string `json:"chain"`
	Day        int    `json:"day"`
	SameDay    bool   `json:"sameDay"`
}

// HeadFromSim converts an engine block event to its wire form.
func HeadFromSim(ev *sim.BlockEvent) *HeadEvent {
	h := &HeadEvent{
		Chain:      ev.Chain,
		Day:        ev.Day,
		Number:     ev.Number,
		Time:       ev.Time,
		Delta:      ev.Delta,
		Difficulty: ev.Difficulty.String(),
		Coinbase:   ev.Coinbase.Hex(),
	}
	if len(ev.Txs) > 0 {
		h.Txs = make([]TxInfo, len(ev.Txs))
		for i, tx := range ev.Txs {
			h.Txs[i] = TxInfo{
				Hash:       tx.Hash.Hex(),
				From:       tx.From.Hex(),
				Contract:   tx.Contract,
				ChainBound: tx.ChainBound,
			}
		}
	}
	return h
}

// DayFromSim converts an engine day event to its wire form.
func DayFromSim(ev *sim.DayEvent) *DayEvent {
	d := &DayEvent{Day: ev.Day, Partitions: make([]PartitionDay, len(ev.Partitions))}
	for i, pd := range ev.Partitions {
		d.Partitions[i] = PartitionDay{
			Chain:      pd.Name,
			USD:        pd.USD,
			Hashrate:   pd.Hashrate,
			Difficulty: pd.Difficulty.String(),
		}
	}
	return d
}

// MaxDay is the largest day index a wire event may carry (about 179
// years of simulated days). Consumers keep one bucket per day up to the
// highest index seen, so an unchecked index is an allocation the sender
// chooses.
const MaxDay = 1<<16 - 1

// HeadToSim is the checked inverse of HeadFromSim: the one place a wire
// head becomes the engine's event. A difficulty that is not a decimal
// integer, a hash or address that is not 0x plus exactly the type's hex
// digits, or a day outside [0, MaxDay] is an error — a damaged event must
// not reach the observables as zeros, or index their buckets.
func HeadToSim(h *HeadEvent) (*sim.BlockEvent, error) {
	var dec decoder
	ev := &sim.BlockEvent{
		Chain:      h.Chain,
		Day:        dec.day(h.Day),
		Number:     h.Number,
		Time:       h.Time,
		Delta:      h.Delta,
		Difficulty: dec.difficulty(h.Difficulty),
	}
	dec.hex(ev.Coinbase[:], h.Coinbase)
	if len(h.Txs) > 0 {
		ev.Txs = make([]sim.TxInfo, len(h.Txs))
	}
	for i, tx := range h.Txs {
		ev.Txs[i] = sim.TxInfo{Contract: tx.Contract, ChainBound: tx.ChainBound}
		dec.hex(ev.Txs[i].Hash[:], tx.Hash)
		dec.hex(ev.Txs[i].From[:], tx.From)
	}
	if dec.err != nil {
		return nil, fmt.Errorf("live: %s head %d: %w", h.Chain, h.Number, dec.err)
	}
	return ev, nil
}

// DayToSim is the checked inverse of DayFromSim.
func DayToSim(d *DayEvent) (*sim.DayEvent, error) {
	var dec decoder
	ev := &sim.DayEvent{Day: dec.day(d.Day), Partitions: make([]sim.PartitionDay, len(d.Partitions))}
	for i, pd := range d.Partitions {
		ev.Partitions[i] = sim.PartitionDay{
			Name:       pd.Chain,
			USD:        pd.USD,
			Hashrate:   pd.Hashrate,
			Difficulty: dec.difficulty(pd.Difficulty),
		}
	}
	if dec.err != nil {
		return nil, fmt.Errorf("live: day %d: %w", d.Day, dec.err)
	}
	return ev, nil
}

// decoder parses an event's encoded fields and keeps the first failure.
type decoder struct{ err error }

func (d *decoder) day(n int) int {
	if (n < 0 || n > MaxDay) && d.err == nil {
		d.err = fmt.Errorf("day %d is outside [0, %d]", n, MaxDay)
	}
	return n
}

func (d *decoder) difficulty(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 10)
	if !ok && d.err == nil {
		d.err = fmt.Errorf("difficulty %q is not a decimal integer", s)
	}
	return v
}

// hex fills dst from s, which must be 0x plus exactly 2*len(dst) hex digits.
func (d *decoder) hex(dst []byte, s string) {
	ok := len(s) == 2+2*len(dst) && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')
	if ok {
		_, err := hex.Decode(dst, []byte(s[2:]))
		ok = err == nil
	}
	if !ok && d.err == nil {
		d.err = fmt.Errorf("%q is not 0x plus %d hex digits", s, 2*len(dst))
	}
}

// Match reports whether an event belongs to a stream. chainFilter
// restricts newHeads to one chain ("" passes all); EOF reaches every
// stream so any follower learns the run ended.
func Match(stream, chainFilter string, ev Event) bool {
	if ev.Kind == KindEOF {
		return true
	}
	switch stream {
	case StreamEvents:
		return true
	case StreamNewHeads:
		return ev.Kind == KindHead && (chainFilter == "" || ev.Head.Chain == chainFilter)
	case StreamNewDays:
		return ev.Kind == KindDay
	case StreamEchoes:
		return ev.Kind == KindEcho
	}
	return false
}

// Validate checks an event's shape (wire consumers call it before Apply).
func (ev Event) Validate() error {
	switch ev.Kind {
	case KindHead:
		if ev.Head == nil {
			return fmt.Errorf("live: head event %d has no head payload", ev.Seq)
		}
	case KindDay:
		if ev.Day == nil {
			return fmt.Errorf("live: day event %d has no day payload", ev.Seq)
		}
	case KindEcho:
		if ev.Echo == nil {
			return fmt.Errorf("live: echo event %d has no echo payload", ev.Seq)
		}
	case KindEOF:
	default:
		return fmt.Errorf("live: unknown event kind %q (seq %d)", ev.Kind, ev.Seq)
	}
	return nil
}
