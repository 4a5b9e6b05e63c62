package grid

import (
	"rmscale/internal/sim"
)

// statusItem is one buffered update inside an estimator.
type statusItem struct {
	rid  int
	load float64
	at   sim.Time
}

// Estimator is an RMS node that receives status updates from a
// partition of the resource pool and distributes them to the scheduling
// decision makers (the paper's Case 3 scaling variable). Resources are
// assigned round-robin, so every estimator typically covers every
// cluster; each digest interval it flushes one digest per covered
// cluster. Estimator CPU time counts into G like scheduler time.
type Estimator struct {
	id     int
	node   int
	netIdx int // routing-matrix index of node (Engine.delay)
	eng    *Engine

	cpu server
	// buffer[cluster] holds updates pending digestion for that
	// cluster's scheduler. The slices are retained and reused across
	// digest cycles, so a steady-state flush allocates only the digest
	// snapshot it broadcasts.
	buffer [][]statusItem

	// Fault state (see faults.go): a crash empties the buffer and bumps
	// cpu.epoch, which destroys queued CPU work.
	down bool
}

// ID returns the estimator index.
func (e *Estimator) ID() int { return e.id }

// Node returns the estimator's topology node.
func (e *Estimator) Node() int { return e.node }

// exec serializes work through the estimator CPU, charging G. A dead
// estimator retires no work, and work queued before a crash dies with
// it (the epoch guard).
func (e *Estimator) exec(cost float64, fn func()) {
	if e.down {
		return
	}
	busy := cost / e.eng.Cfg.Costs.SchedulerSpeed
	e.eng.Metrics.chargeEstimator(e.id, cost, busy)
	e.cpu.submit(e.eng.K.Now(), busy, work{fn: fn})
}

// QueueDelay reports how far behind the estimator's CPU currently is.
func (e *Estimator) QueueDelay() sim.Time { return e.cpu.queueDelay(e.eng.K.Now()) }

// ingest buffers one resource update once the estimator CPU retires it.
func (e *Estimator) ingest(rid int, load float64, at sim.Time) {
	cluster := e.eng.Map.ResourceCluster[rid]
	e.buffer[cluster] = append(e.buffer[cluster], statusItem{rid: rid, load: load, at: at})
}

// digest is one estimator flush, partitioned by destination cluster:
// parts[offs[c]:offs[c+1]] are cluster c's items sorted by (rid, time),
// and rids mirrors parts entry-for-entry so a delivery can hand the
// policy its OnStatus id list without building one. The whole digest is
// one immutable snapshot shared by every scheduler's delivery record;
// receivers read it, never mutate it.
type digest struct {
	parts []statusItem
	offs  []int
	rids  []int
}

// total returns the number of status items across all clusters.
func (d *digest) total() int { return len(d.parts) }

// cluster returns cluster c's partition and the matching resource ids.
func (d *digest) cluster(c int) ([]statusItem, []int) {
	lo, hi := d.offs[c], d.offs[c+1]
	return d.parts[lo:hi], d.rids[lo:hi]
}

// flush distributes the buffered status to the scheduling decision
// makers: one digest, broadcast to every scheduler, per digest interval
// (the UpdateInterval enabler). This is the paper's estimator role —
// "receive the status updates from RP resources and distribute to the
// scheduling decision makers" — and it is why scaling up the estimator
// layer multiplies the digest traffic every scheduler must process.
//
// The buffered items are snapshotted into one freshly allocated backing
// array per flush (cluster by cluster, each partition sorted). Fresh,
// not scratch: the broadcast and the per-scheduler deliveries run at
// later simulated times, and under estimator saturation a delivery
// can outlive the next flush, so reusing a buffer here would
// corrupt an in-flight digest. Per-cluster sorting yields exactly the
// items a global (rid, time) sort would hand each cluster, because a
// resource id maps to a single cluster.
func (e *Estimator) flush() {
	if e.down {
		return
	}
	total := 0
	for _, items := range e.buffer {
		total += len(items)
	}
	parts := make([]statusItem, 0, total)
	offs := make([]int, 0, len(e.buffer)+1)
	for c := range e.buffer {
		sortStatusItems(e.buffer[c])
		offs = append(offs, len(parts))
		parts = append(parts, e.buffer[c]...)
		e.buffer[c] = e.buffer[c][:0]
	}
	offs = append(offs, len(parts))
	rids := make([]int, len(parts))
	for i := range parts {
		rids[i] = parts[i].rid
	}
	// An empty digest is still broadcast: it doubles as the
	// dissemination heartbeat every decision maker consumes, so the
	// layer's traffic scales with the estimator count, not with the
	// update volume.
	d := e.eng.acquire(opBroadcast)
	d.est, d.dg = e, &digest{parts: parts, offs: offs, rids: rids}
	e.exec(e.eng.Cfg.Costs.EstimatorPer*float64(total), d.fire)
}

// sortStatusItems orders a digest partition by (resource id, time) so
// broadcast content is independent of buffering order.
func sortStatusItems(items []statusItem) {
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && less(items[j], items[j-1]); j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

func less(a, b statusItem) bool {
	if a.rid != b.rid {
		return a.rid < b.rid
	}
	return a.at < b.at
}

// startDigests arms the periodic digest flush with a phase offset.
func (e *Estimator) startDigests(interval float64, phase *sim.Stream) {
	offset := phase.Uniform(0, interval)
	e.eng.K.After(offset, func() {
		e.flush()
		sim.NewTicker(e.eng.K, interval, e.flush)
	})
}
