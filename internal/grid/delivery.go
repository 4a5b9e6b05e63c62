package grid

import (
	"rmscale/internal/sim"
)

// This file is the engine's message fabric: the pooled records that
// carry a job, a status update or a protocol message from one hop to
// the next. A closure per hop would allocate once or twice per event.
// A delivery record holds an op code plus the hop's operands, and its
// fire method value is bound once, when the record is first allocated,
// so fire goes wherever a closure would (kernel events, server work
// items, the middleware queue, protoSend) at no cost.
//
// Lifetime contract:
//   - a record is taken from its engine's free list when its hop is
//     scheduled, and has exactly one pending stage at a time;
//   - just before its action runs it is copied out and returned to the
//     list, so the action may reuse it for the next hop; a stage whose
//     action only queues the hop's next stage re-arms the record in
//     place instead, which is what the LIFO list would hand back;
//   - a released record carries opFree, and firing one panics, so a
//     use after release fails loudly instead of producing a silently
//     wrong figure;
//   - a record whose work item the epoch guard drops after a crash, or
//     whose message protoSend abandons, is never fired and never
//     reused; the GC collects it.
//
// Every hop is scheduled at the same point, for the same time, as a
// closure carrying it would be; taking a record from the free list
// never touches the kernel. Sequence numbers, fire order and event
// counts are therefore unchanged by construction. An engine runs on one
// goroutine, so the free list needs no locking.

// deliveryOp names the action a record performs when it fires.
type deliveryOp uint8

const (
	opFree            deliveryOp = iota // released to the free list
	opUpdateArrive                      // direct status update reaches its scheduler
	opUpdateMerge                       // the scheduler CPU retires the update
	opEstimatorArrive                   // status update reaches its estimator
	opEstimatorIngest                   // the estimator CPU retires the ingest
	opBroadcast                         // the estimator CPU retires a digest flush
	opDigestArrive                      // digest reaches one scheduler
	opDigestMerge                       // the scheduler CPU retires the batch merge
	opSend                              // the sender's CPU retires SendPolicy
	opMsgArrive                         // protocol message reaches its receiver
	opMsgHandle                         // the receiver's CPU retires the message
	opTransfer                          // the sender's CPU retires TransferJob
	opJobArrive                         // transferred job reaches its scheduler
	opJobHandle                         // the receiver's CPU retires the job
	opDecide                            // DispatchLeastLoaded's decision retires
	opDispatch                          // dispatched job reaches its resource
	opComplete                          // the resource finishes the job
	opMiddleware                        // message reaches the middleware queue
)

// delivery is one pooled hop. Only the operands its op reads are
// meaningful; the others may hold values from an earlier hop.
type delivery struct {
	op    deliveryOp
	eng   *Engine
	sched *Scheduler
	res   *Resource
	est   *Estimator
	ctx   *JobCtx
	msg   *Message
	dg    *digest
	fn    func() // opMiddleware: the message's onward delivery
	// rid is the status update's resource, or opTransfer's destination
	// cluster.
	rid  int
	load float64
	// at is the status update's sample time, or opMiddleware's onward
	// network leg.
	at   sim.Time
	fire func() // run, bound once
}

// acquire takes a record from the free list for a hop performing op.
//
//lint:hotpath every engine hop acquires its record here; engine/*/allocs_per_event pins the fabric allocation-free once the free list is warm
func (e *Engine) acquire(op deliveryOp) *delivery {
	var d *delivery
	if n := len(e.free); n > 0 {
		d = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		//lint:allow hotalloc free-list cold start: each record (and its bound fire) is allocated once and recycled for the rest of the run
		d = &delivery{eng: e}
		d.fire = d.run
	}
	d.op = op
	return d
}

// run is every record's fire. A stage whose only action is to queue
// the hop's next stage on a CPU re-arms the record in place under the
// next op: releasing it and taking it straight back from the LIFO free
// list would return the very same record, at the cost of two copies
// and their GC write barriers. Every other stage copies the record out
// and releases it before acting, so the action may reuse it for the
// next hop. Release leaves the operands in place (clearing them would
// pay the same barriers); every acquire site sets all the operands its
// op reads.
//
//lint:hotpath every engine hop fires through here; engine/*/allocs_per_event pins it allocation-free once the free list is warm
func (d *delivery) run() {
	e := d.eng
	c := &e.Cfg.Costs
	switch d.op {
	case opFree:
		//lint:allow hotalloc panic path: fires only on a use after release, never in a correct run
		panic("grid: fired a released delivery record")
	case opUpdateArrive:
		d.op = opUpdateMerge
		d.sched.Exec(c.UpdateBatchBase+c.UpdatePer, d.fire)
		return
	case opEstimatorArrive:
		d.op = opEstimatorIngest
		d.est.exec(c.EstimatorPer, d.fire)
		return
	case opDigestArrive:
		d.op = opDigestMerge
		own, _ := d.dg.cluster(d.sched.cluster)
		d.sched.Exec(c.UpdateBatchBase+c.UpdatePer*float64(len(own)), d.fire)
		return
	case opMsgArrive:
		d.op = opMsgHandle
		d.sched.ExecMsg(d.fire)
		return
	case opJobArrive:
		d.sched.own(d.ctx)
		d.op = opJobHandle
		d.sched.ExecMsg(d.fire)
		return
	}

	v := *d
	d.op = opFree
	e.free = append(e.free, d)
	switch v.op {
	case opUpdateMerge:
		v.sched.mergeUpdate(v.rid, v.load, v.at)
	case opEstimatorIngest:
		v.est.ingest(v.rid, v.load, v.at)
	case opBroadcast:
		e.broadcastDigest(v.est, v.dg)
	case opDigestMerge:
		v.sched.mergeDigest(v.dg)
	case opSend:
		e.deliverPolicy(v.sched, v.msg)
	case opMsgHandle:
		e.policy.OnMessage(v.sched, v.msg)
	case opTransfer:
		e.transferJob(v.sched, v.ctx, v.rid)
	case opJobHandle:
		e.policy.OnJob(v.sched, v.ctx)
	case opDecide:
		v.sched.decideLeastLoaded(v.ctx)
	case opDispatch:
		v.res.enqueue(v.ctx)
	case opComplete:
		v.res.complete(v.ctx)
	case opMiddleware:
		e.mw.arrive(v.fn, v.at)
	}
}
