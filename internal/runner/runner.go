// Package runner is the experiment-execution subsystem: it owns how
// the (case, model, k) tuning jobs of the paper's evaluation actually
// run. It provides three cooperating pieces:
//
//   - a work-stealing worker pool (Pool) sharding jobs across
//     GOMAXPROCS workers — overridable with the CLI's -j — with
//     context cancellation;
//   - a content-addressed result cache (Cache) keyed by a canonical
//     hash of the inputs (grid config, RMS model, enabler vector,
//     seed, fidelity), with a memory tier and an optional disk tier,
//     so the annealing tuner's repeated and overlapping evaluations —
//     and whole re-runs — hit the cache instead of re-simulating. The
//     disk tier is the one persistent record of a run: an interrupted
//     run restarted over the same directory replays what it holds and
//     produces byte-identical results;
//   - a progress reporter (Reporter): jobs done/total, cache hit rate,
//     ETA and per-worker current job, printed under -v and written
//     machine-readably to runstate.json.
//
// The design follows the lineage the paper sits in: Nimrod/G treats a
// large parameter sweep as a persistent, schedulable experiment with
// per-job bookkeeping, and GridSim decouples a reusable execution
// layer from the model being simulated. Everything here is
// deterministic by construction: caching and parallelism only ever
// reorder or skip work whose outputs are pure functions of their
// hashed inputs, so same seed in, identical tables out.
package runner

import (
	"context"
	"io"
)

// Options configures a Run.
type Options struct {
	// Workers is the worker-pool size; <= 0 picks GOMAXPROCS.
	Workers int
	// Dir is the run directory holding the disk cache tier and
	// runstate.json. Empty disables persistence: the cache stays in
	// memory.
	Dir string
	// Log, when non-nil, receives human-readable progress lines.
	Log io.Writer
	// Context cancels the run early; nil means Background.
	Context context.Context
	// KeepGoing stops a task error from cancelling the run: the
	// remaining tasks complete (and fill the cache, when Dir is set)
	// and Wait returns every error joined. Use for long sweeps where
	// one bad point must not void ten hours of completed work.
	KeepGoing bool
}

// Run bundles one experiment execution: pool, cache and reporter wired
// together.
type Run struct {
	Pool   *Pool
	Cache  *Cache
	Report *Reporter
}

// Start assembles a Run. When opts.Dir names a directory that already
// holds a disk cache, the run replays from it.
func Start(opts Options) (*Run, error) {
	cache, err := NewCache(opts.Dir)
	if err != nil {
		return nil, err
	}
	r := &Run{Cache: cache}
	r.Report = NewReporter(cache, opts.Dir, opts.Log)
	r.Pool = NewPool(opts.Context, opts.Workers, r.Report)
	r.Pool.SetKeepGoing(opts.KeepGoing)
	return r, nil
}

// Wait blocks until every submitted task finished and finalizes the
// progress state. It returns the first task error.
func (r *Run) Wait() error {
	err := r.Pool.Wait()
	r.Report.Finish()
	return err
}
