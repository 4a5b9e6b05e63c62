// Package runner is the experiment-execution subsystem: it owns how
// the (case, model, k) tuning jobs of the paper's evaluation actually
// run. It provides four cooperating pieces:
//
//   - a work-stealing worker pool (Pool) sharding jobs across
//     GOMAXPROCS workers — overridable with the CLI's -j — with
//     context cancellation;
//   - a content-addressed result cache (Cache) keyed by a canonical
//     hash of the inputs (grid config, RMS model, enabler vector,
//     seed, fidelity), with a memory tier and an optional disk tier,
//     so the annealing tuner's repeated and overlapping evaluations —
//     and whole re-runs — hit the cache instead of re-simulating;
//   - a checkpoint journal (Journal): completed work units are
//     committed atomically to an append-only log, and an interrupted
//     run restarted with the same parameters resumes from the log and
//     produces byte-identical final tables;
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
	"fmt"
	"io"
)

// Options configures a Run.
type Options struct {
	// Workers is the worker-pool size; <= 0 picks GOMAXPROCS.
	Workers int
	// Dir is the run directory holding the checkpoint journal, the
	// disk cache tier, and runstate.json. Empty disables persistence:
	// the cache stays in memory and nothing is journaled.
	Dir string
	// Fingerprint identifies the run parameters (fidelity, seed, ...).
	// A journal written under a different fingerprint refuses to
	// resume.
	Fingerprint string
	// Log, when non-nil, receives human-readable progress lines.
	Log io.Writer
	// Context cancels the run early; nil means Background.
	Context context.Context
	// KeepGoing stops a task error from cancelling the run: the
	// remaining tasks complete (and journal, when Dir is set) and Wait
	// returns every error joined. Use for long sweeps where one bad
	// point must not void ten hours of completed work.
	KeepGoing bool
}

// Run bundles one experiment execution: pool, cache, journal and
// reporter wired together.
type Run struct {
	Pool    *Pool
	Cache   *Cache
	Journal *Journal // nil when Options.Dir is empty
	Report  *Reporter

	// Resumed reports whether a prior journal was found and loaded.
	Resumed bool
}

// Start assembles a Run. When opts.Dir names a directory containing a
// compatible journal, the run resumes from it.
func Start(opts Options) (*Run, error) {
	cache, err := NewCache(opts.Dir)
	if err != nil {
		return nil, err
	}
	r := &Run{Cache: cache}
	if opts.Dir != "" {
		j, resumed, err := OpenJournal(opts.Dir, opts.Fingerprint)
		if err != nil {
			return nil, err
		}
		r.Journal = j
		r.Resumed = resumed
	}
	r.Report = NewReporter(cache, opts.Dir, opts.Log)
	r.Pool = NewPool(opts.Context, opts.Workers, r.Report)
	r.Pool.SetKeepGoing(opts.KeepGoing)
	return r, nil
}

// Wait blocks until every submitted task finished, finalizes the
// progress state, and closes the journal. It returns the first task
// error.
func (r *Run) Wait() error {
	err := r.Pool.Wait()
	r.Report.Finish()
	if r.Journal != nil {
		if cerr := r.Journal.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("runner: closing journal: %w", cerr)
		}
	}
	return err
}
