package grid

// StealQueuedJob removes the most recently queued (not yet running) job
// from the most backlogged resource of the cluster and returns its
// envelope, or nil when nothing is waiting. It models the scheduler's
// virtual wait queue in the superscheduler and auction models: the
// scheduler knows what it dispatched, so reclaiming a waiting job is a
// bookkeeping operation; the subsequent transfer still pays full message
// costs and delays.
func (e *Engine) StealQueuedJob(cluster int) *JobCtx {
	var victim *Resource
	most := 0
	for _, rid := range e.Map.ClusterResources[cluster] {
		r := e.Resources[rid]
		if !r.down && len(r.queue) > most {
			victim, most = r, len(r.queue)
		}
	}
	if victim == nil {
		return nil
	}
	ctx := victim.queue[len(victim.queue)-1]
	victim.queue = victim.queue[:len(victim.queue)-1]
	victim.dirty = true
	// The stolen job is the scheduler's responsibility again until it
	// is re-dispatched or transferred (no-op without faults armed).
	e.Schedulers[cluster].own(ctx)
	// The scheduler's optimistic view of this resource is now one too
	// high; the next status update heals it.
	return ctx
}
