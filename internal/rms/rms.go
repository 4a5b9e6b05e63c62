// Package rms implements the seven resource management system models the
// paper evaluates — CENTRAL, LOWEST, RESERVE, AUCTION, S-I, R-I and
// Sy-I — as grid.Policy implementations, re-built on this repository's
// grid model the same way the paper re-implemented them on its own grid
// model.
//
// Protocol taxonomy (the paper's Section 3.3):
//
//   - CENTRAL: one scheduler decides for the whole pool.
//   - LOWEST:  poll-on-arrival load balancing (Zhou's trace study).
//   - RESERVE: underloaded clusters register reservations ahead of time.
//   - AUCTION: underloaded clusters auction capacity; loaded bid.
//   - S-I:     sender-initiated superscheduler over grid middleware.
//   - R-I:     receiver-initiated volunteering over grid middleware.
//   - Sy-I:    symmetric combination of S-I and R-I.
package rms

import (
	"fmt"

	"rmscale/internal/grid"
)

// All returns fresh instances of every model, in the paper's order.
func All() []grid.Policy {
	ids := IDs()
	out := make([]grid.Policy, len(ids))
	for i, id := range ids {
		out[i] = New(id)
	}
	return out
}

// Names lists the model names in the paper's order, without building
// the models.
func Names() []string {
	ids := IDs()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.String()
	}
	return out
}

// Extensions returns the models this repository adds beyond the
// paper's seven (currently the hierarchical RMS).
func Extensions() []grid.Policy {
	return []grid.Policy{NewHierarchy()}
}

// ByName returns a fresh instance of the named model, searching the
// paper's roster first and then the extensions.
func ByName(name string) (grid.Policy, error) {
	if id, ok := ParseID(name); ok {
		return New(id), nil
	}
	for _, m := range Extensions() {
		if m.Name() == name {
			return m, nil
		}
	}
	known := Names()
	for _, m := range Extensions() {
		known = append(known, m.Name())
	}
	return nil, fmt.Errorf("rms: unknown model %q (have %v)", name, known)
}

// placeLocally is the shared terminal action: charge a full-cluster
// decision scan and dispatch to the believed least loaded local
// resource. All models use it for LOCAL jobs, for transferred arrivals
// (Hops > 0), and for bounced dispatches.
func placeLocally(s *grid.Scheduler, ctx *grid.JobCtx) {
	s.DispatchLeastLoaded(ctx)
}

// mustPlaceLocally reports whether the job has no routing freedom left:
// LOCAL class, already transferred, or re-entering after a bounce.
func mustPlaceLocally(s *grid.Scheduler, ctx *grid.JobCtx) bool {
	if ctx.Hops > 0 || ctx.Attempts > 0 {
		return true
	}
	if ctx.Job.Class == localClass {
		return true
	}
	return len(s.Peers()) == 0
}
