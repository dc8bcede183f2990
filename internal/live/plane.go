package live

import (
	"forkwatch/internal/live/feed"
	"forkwatch/internal/metrics"
	"forkwatch/internal/sim"
)

// Plane bundles a Feed and an Analyzer into the live measurement plane
// attached to a serving stack: one sim.Observer that both publishes the
// wire feed and keeps the rolling observables, sharing a single code
// path with over-the-wire consumers.
type Plane struct {
	Feed     *feed.Feed
	Analyzer *Analyzer
}

// NewPlane builds a plane metered through reg.
func NewPlane(epoch uint64, reg *metrics.Registry) *Plane {
	p := &Plane{Feed: feed.NewFeed(reg, ringSize)}
	// Derived echo candidates go back out on the feed so pendingEchoes
	// subscribers see the join as it happens. The callback runs under the
	// analyzer lock; Feed.Publish takes only the feed lock (acyclic).
	p.Analyzer = newAnalyzer(epoch, echoSetCap, func(ev *sim.BlockEvent, tx *sim.TxInfo, firstChain string, firstDay int) {
		p.Feed.Publish(feed.Event{Kind: feed.KindEcho, Echo: &feed.EchoEvent{
			Hash:       tx.Hash.Hex(),
			From:       tx.From.Hex(),
			FirstChain: firstChain,
			FirstDay:   firstDay,
			Chain:      ev.Chain,
			Day:        ev.Day,
			SameDay:    firstDay == ev.Day,
		}})
	})
	return p
}

// OnBlock implements sim.Observer: publish the head's wire form, then
// fold the engine's event into the analyzer as it is (which may publish
// derived echoes).
func (p *Plane) OnBlock(ev *sim.BlockEvent) {
	p.Feed.Publish(feed.Event{Kind: feed.KindHead, Head: feed.HeadFromSim(ev)})
	p.Analyzer.OnBlock(ev)
}

// OnDay implements sim.Observer.
func (p *Plane) OnDay(ev *sim.DayEvent) {
	p.Feed.Publish(feed.Event{Kind: feed.KindDay, Day: feed.DayFromSim(ev)})
	p.Analyzer.OnDay(ev)
}

// Complete marks the run finished and publishes the EOF marker.
func (p *Plane) Complete() {
	p.Analyzer.MarkComplete()
	p.Feed.Publish(feed.Event{Kind: feed.KindEOF})
}
