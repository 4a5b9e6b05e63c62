package rms

import (
	"math"

	"rmscale/internal/grid"
	"rmscale/internal/sim"
)

// Message kinds for AUCTION (it reuses the LOWEST poll kinds for its
// initial scheduling, so auction kinds start above them).
const (
	msgAuctionInvite = iota + 100
	msgAuctionBid
	msgAuctionAward
)

// auctionBid carries a bid and its auction id.
type auctionBid struct {
	id   int
	load float64 // bidder's most loaded resource
}

// openAuction tracks the best bid of one running auction.
type openAuction struct {
	bestLoad float64
	bestFrom int
}

// auctionState is the per-scheduler state of the AUCTION model; it
// embeds the LOWEST poll state because initial scheduling follows
// LOWEST.
type auctionState struct {
	lowestState
	nextAuction int
	open        map[int]*openAuction // auction id -> best bid so far
	lastAuction sim.Time
	// check is the scheduler's trigger check, bound once in Attach, so a
	// status batch queues it without building a closure.
	check func()
}

// Auction is the paper's AUCTION model (after Leland & Ott): initial
// scheduling follows LOWEST; additionally, when a scheduler finds a
// resource in its cluster idle or below the threshold load, it invites
// L_p neighbouring schedulers to an auction. Schedulers with a resource
// loaded above the threshold bid; after a small accumulation window the
// auctioneer awards to the highest-loaded bidder, which migrates one
// waiting job to the auctioneer's cluster.
type Auction struct {
	lowest Lowest // reused for initial scheduling
}

// NewAuction returns the AUCTION model.
func NewAuction() *Auction { return &Auction{} }

// Name implements grid.Policy.
func (*Auction) Name() string { return "AUCTION" }

// Central implements grid.Policy.
func (*Auction) Central() bool { return false }

// UsesMiddleware implements grid.Policy.
func (*Auction) UsesMiddleware() bool { return false }

// Attach initializes the combined LOWEST + auction state.
func (a *Auction) Attach(e *grid.Engine) {
	for c := 0; c < e.Clusters(); c++ {
		s := e.Scheduler(c)
		st := &auctionState{
			lowestState: lowestState{sessions: make(map[int]*lowestSession)},
			open:        make(map[int]*openAuction),
			lastAuction: -math.MaxFloat64,
		}
		st.check = func() { a.trigger(s, st) }
		s.State = st
	}
}

// OnJob delegates to LOWEST's arrival handling.
func (a *Auction) OnJob(s *grid.Scheduler, ctx *grid.JobCtx) {
	a.lowest.OnJob(s, ctx)
}

// OnStatus evaluates the auction trigger against every batch of fresh
// status information — the paper's "when a scheduler S_a finds a
// resource in its cluster is idle or has load below threshold T_l".
// Each batch costs a trigger check, so the model's overhead grows with
// the rate status arrives: direct updates without estimators, digest
// heartbeats with them — the Figure 4 coupling.
func (a *Auction) OnStatus(s *grid.Scheduler, updated []int) {
	s.Exec(s.Engine().Cfg.Costs.TriggerCheck, auctionStateOf(s).check)
}

// trigger is the trigger check a status batch pays for. It reads the
// config when it runs; the config is constant for the run.
func (a *Auction) trigger(s *grid.Scheduler, st *auctionState) {
	proto := s.Engine().Cfg.Protocol
	cooldown := proto.BidWindow
	if vi := s.Engine().Cfg.Enablers.VolunteerInterval; vi > cooldown {
		cooldown = vi
	}
	if s.Now()-st.lastAuction < cooldown {
		return
	}
	// Trigger on a believed-idle resource; T_l bounds how loaded a
	// "near idle" resource may look before it stops counting.
	_, least, ok := s.LeastLoadedLocal()
	if !ok || least > 0 || least >= proto.ThresholdLoad {
		return
	}
	st.lastAuction = s.Now()
	id := st.nextAuction
	st.nextAuction++
	st.open[id] = &openAuction{bestLoad: -1, bestFrom: -1}
	// Opening the auction costs a scan plus the invitations.
	s.ExecDecision(len(s.LocalResources()), func() {
		for _, p := range s.RandomPeers(proto.Lp) {
			s.SendPolicy(p, msgAuctionInvite, id)
		}
		s.Engine().K.After(proto.BidWindow, func() { a.closeAuction(s, id) })
	})
}

// OnTick implements grid.Policy; auctions are status-triggered.
func (*Auction) OnTick(*grid.Scheduler) {}

// closeAuction awards the accumulated best bid.
func (*Auction) closeAuction(s *grid.Scheduler, id int) {
	st := auctionStateOf(s)
	best, ok := st.open[id]
	if !ok {
		return
	}
	delete(st.open, id)
	if best.bestFrom < 0 {
		return // no bids
	}
	s.ExecMsg(func() {
		s.SendPolicy(best.bestFrom, msgAuctionAward, id)
	})
}

// OnMessage handles invitations, bids and awards, delegating poll kinds
// to LOWEST.
func (a *Auction) OnMessage(s *grid.Scheduler, m *grid.Message) {
	switch m.Kind {
	case msgAuctionInvite:
		id := m.Payload.(int)
		proto := s.Engine().Cfg.Protocol
		s.ExecDecision(len(s.LocalResources()), func() {
			if load := s.MaxLocalLoad(); load > proto.ThresholdLoad {
				s.SendPolicy(m.From, msgAuctionBid, auctionBid{id: id, load: load})
			}
		})
	case msgAuctionBid:
		bid := m.Payload.(auctionBid)
		st := auctionStateOf(s)
		best, ok := st.open[bid.id]
		if !ok {
			return // auction already closed
		}
		if bid.load > best.bestLoad {
			best.bestLoad = bid.load
			best.bestFrom = m.From
		}
	case msgAuctionAward:
		// We won: migrate one waiting job to the auctioneer.
		if ctx := s.Engine().StealQueuedJob(s.Cluster()); ctx != nil {
			s.TransferJob(ctx, m.From)
		}
	default:
		a.lowest.OnMessage(s, m)
	}
}

// auctionStateOf extracts the auction state.
func auctionStateOf(s *grid.Scheduler) *auctionState { return s.State.(*auctionState) }
