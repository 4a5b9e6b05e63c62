// Package experiments reproduces the paper's evaluation: the four
// scaling cases of Tables 2-5 and the six result figures.
//
//	Case 1 (Table 2, Figure 2): scale the RP by network size.
//	Case 2 (Table 3, Figure 3): scale the RP by resource service rate.
//	Case 3 (Table 4, Figures 4, 6, 7): scale the RMS by status
//	        estimator count.
//	Case 4 (Table 5, Figure 5): scale the RMS by L_p, the number of
//	        neighbour schedulers probed.
//
// In every case the workload scales in the same proportion as the
// scaling variable, the efficiency band is the paper's [0.38, 0.42],
// and a simulated annealing search re-tunes the case's scaling enablers
// at each scale factor to minimize the RMS overhead G(k).
package experiments

import (
	"context"
	"fmt"

	"rmscale/internal/anneal"
	"rmscale/internal/audit"
	"rmscale/internal/grid"
	"rmscale/internal/rms"
	"rmscale/internal/runner"
	"rmscale/internal/scale"
	"rmscale/internal/stats"
)

// Fidelity trades runtime for statistical quality.
type Fidelity int

const (
	// Smoke is for unit tests: tiny grid, three scale factors.
	Smoke Fidelity = iota
	// Quick produces recognizable curves in minutes on one core.
	Quick
	// Full is the paper-shaped configuration (1000-node cases).
	Full
)

// String names the fidelity level.
func (f Fidelity) String() string {
	switch f {
	case Smoke:
		return "smoke"
	case Quick:
		return "quick"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("fidelity(%d)", int(f))
	}
}

// ParseFidelity converts a CLI string.
func ParseFidelity(s string) (Fidelity, error) {
	switch s {
	case "smoke":
		return Smoke, nil
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("experiments: unknown fidelity %q (want smoke, quick or full)", s)
}

// tuning returns the annealing budget per fidelity.
func (f Fidelity) tuning() anneal.Options {
	switch f {
	case Smoke:
		return anneal.Options{Iters: 5, Restarts: 1}
	case Quick:
		return anneal.Options{Iters: 16, Restarts: 1}
	default:
		return anneal.Options{Iters: 24, Restarts: 1}
	}
}

// replicas returns how many independent seeds each evaluation averages
// over; replication smooths the tuner's objective surface.
func (f Fidelity) replicas() int {
	switch f {
	case Smoke:
		return 1
	case Quick:
		return 2
	default:
		return 2
	}
}

// ks returns the scale factors per fidelity.
func (f Fidelity) ks() []int {
	if f == Smoke {
		return []int{1, 2, 3}
	}
	return []int{1, 2, 3, 4, 5, 6}
}

// Result is the outcome of one case for every model.
type Result struct {
	Case     int
	Title    string
	Variant  string // "" for the plain case; "churn" under the fault load
	Fidelity Fidelity
	// Measurements maps model name to its tuned G(k) measurement.
	Measurements map[string]*scale.Measurement
	// Order lists model names in the paper's order.
	Order []string
}

// Figure assembles the case's raw overhead curves (the paper's
// "Variation in G(k)" figures).
func (r *Result) Figure() *stats.SeriesSet {
	ss := &stats.SeriesSet{Title: r.Title, XLabel: "k", YLabel: "G(k)"}
	for _, name := range r.Order {
		if m, ok := r.Measurements[name]; ok {
			ss.Add(m.Series())
		}
	}
	return ss
}

// ThroughputFigure assembles throughput curves (Figure 6 for Case 3).
func (r *Result) ThroughputFigure() *stats.SeriesSet {
	ss := &stats.SeriesSet{
		Title:  fmt.Sprintf("Throughput, case %d", r.Case),
		XLabel: "k", YLabel: "jobs completed per time unit",
	}
	for _, name := range r.Order {
		if m, ok := r.Measurements[name]; ok {
			ss.Add(stats.Series{Name: name, X: m.Ks(), Y: m.Throughputs()})
		}
	}
	return ss
}

// ResponseFigure assembles mean response time curves (Figure 7).
func (r *Result) ResponseFigure() *stats.SeriesSet {
	ss := &stats.SeriesSet{
		Title:  fmt.Sprintf("Average response time, case %d", r.Case),
		XLabel: "k", YLabel: "mean response time",
	}
	for _, name := range r.Order {
		if m, ok := r.Measurements[name]; ok {
			ss.Add(stats.Series{Name: name, X: m.Ks(), Y: m.ResponseTimes()})
		}
	}
	return ss
}

// caseDef describes one scaling case: how to build the grid config at a
// scale factor and which enablers the tuner may adjust (the case's
// Table).
type caseDef struct {
	id       int
	title    string
	enablers []scale.Enabler
	// variant distinguishes re-runs of the same case under modified
	// conditions (e.g. "churn" for the degraded-mode experiment). It is
	// folded into task IDs and cache scopes only when non-empty, so
	// plain cases keep their original cache keys.
	variant string
	// config builds the grid configuration at scale k with the
	// enablers applied.
	config func(fid Fidelity, seed int64, k int, x []float64) grid.Config
}

// name labels the case definition in runner task IDs.
func (d caseDef) name() string {
	if d.variant == "" {
		return fmt.Sprintf("case%d", d.id)
	}
	return fmt.Sprintf("case%d+%s", d.id, d.variant)
}

// simResult is the cached outcome of one engine run: the summary plus
// the event-budget flag the evaluator checks. It is the payload stored
// under the runner's content-addressed key.
type simResult struct {
	Sum        grid.Summary
	Overflowed bool
}

// simulate runs one engine for cfg under the model p, memoized through
// the run's content-addressed cache: the key is a canonical hash of
// (fidelity, model, full grid config), and the config embeds the seed
// and the applied enabler vector, so a cache hit is exactly a re-run.
func simulate(run *runner.Run, substrates *grid.SubstrateCache, fid Fidelity,
	p grid.Policy, cfg grid.Config) (simResult, error) {

	key, err := runner.KeyOf("sim/v1", fid.String(), p.Name(), cfg)
	if err != nil {
		return simResult{}, err
	}
	if b, ok := run.Cache.Get(key); ok {
		var sr simResult
		if err := decodeCached(b, &sr); err == nil {
			return sr, nil
		}
		// A corrupt payload falls through to recompute and overwrite.
	}
	// The substrate cache key uses the post-collapse spec, so apply
	// the engine's collapse rule before the lookup.
	lookup := cfg
	if p.Central() {
		lookup.Spec.ClusterSize = lookup.Spec.Clusters * lookup.Spec.ClusterSize
		lookup.Spec.Clusters = 1
		lookup.Workload.Clusters = 1
	}
	sub, err := substrates.Get(lookup)
	if err != nil {
		return simResult{}, err
	}
	fresh, err := rms.ByName(p.Name()) // engines are single-use; state must be fresh
	if err != nil {
		return simResult{}, err
	}
	e, err := grid.NewWith(cfg, fresh, sub)
	if err != nil {
		return simResult{}, err
	}
	// Every experiment run self-checks its conservation laws; a
	// violated invariant is an error, never a silently wrong data
	// point, and it is detected before the result can enter the cache.
	aud, err := audit.Attach(e, audit.Config{Mode: audit.Record})
	if err != nil {
		return simResult{}, err
	}
	sr := simResult{Sum: e.Run(), Overflowed: e.K.Overflowed}
	if e.K.Stalled {
		return simResult{}, e.K.Err()
	}
	if err := aud.Err(); err != nil {
		return simResult{}, err
	}
	if b, err := encodeCached(sr); err == nil {
		if err := run.Cache.Put(key, b); err != nil {
			return simResult{}, err
		}
	}
	return sr, nil
}

// measureModel runs the scalability measurement procedure for a single
// model over the case definition: the per-(model, k) tuning chain that
// is one job of the runner's pool. Every evaluation goes through the
// run's content-addressed cache, so a rerun against a warm run
// directory replays the chain from the cache without simulating.
func measureModel(ctx context.Context, run *runner.Run, def caseDef, fid Fidelity,
	seed int64, p grid.Policy, substrates *grid.SubstrateCache,
	progress func(string, scale.Point)) (*scale.Measurement, error) {

	name := p.Name()
	replicas := fid.replicas()
	ev := scale.EvaluatorFunc(func(k int, x []float64) (scale.Observation, error) {
		if err := ctx.Err(); err != nil {
			return scale.Observation{}, err
		}
		var acc scale.Observation
		for r := 0; r < replicas; r++ {
			cfg := def.config(fid, seed+int64(r)*101, k, x)
			sr, err := simulate(run, substrates, fid, p, cfg)
			if err != nil {
				return scale.Observation{}, err
			}
			sum := sr.Sum
			if sr.Overflowed {
				return scale.Observation{}, fmt.Errorf("event budget exceeded at k=%d", k)
			}
			acc.F += sum.F
			acc.G += sum.G
			acc.H += sum.H
			acc.Throughput += sum.Throughput
			acc.MeanResponse += sum.MeanResponse
			acc.SuccessRate += sum.SuccessRate
			acc.JobsLost += float64(sum.JobsLost)
			acc.Crashes += float64(sum.Crashes)
			acc.MsgsLost += float64(sum.MsgsLost)
			acc.Retries += float64(sum.Retries)
			acc.Failovers += float64(sum.Failovers)
			// A node is saturated when its busy fraction pins at 1 or
			// its work queue built a backlog long enough to matter
			// against job deadlines (runtimes are hundreds of units).
			if sum.MaxSchedulerUtil > 0.98 || sum.MaxSchedDelay > 25 {
				acc.Saturated = true
			}
		}
		n := float64(replicas)
		acc.F /= n
		acc.G /= n
		acc.H /= n
		acc.Throughput /= n
		acc.MeanResponse /= n
		acc.SuccessRate /= n
		acc.JobsLost /= n
		acc.Crashes /= n
		acc.MsgsLost /= n
		acc.Retries /= n
		acc.Failovers /= n
		// Efficiency from the averaged accounting terms, not the
		// average of ratios.
		if total := acc.F + acc.G + acc.H; total > 0 {
			acc.Efficiency = acc.F / total
		}
		return acc, nil
	})

	opts := fid.tuning()
	opts.Seed = seed
	spec := scale.MeasureSpec{
		RMS:       name,
		Ks:        fid.ks(),
		Enablers:  def.enablers,
		Band:      scale.PaperBand(),
		Anneal:    opts,
		WarmStart: true,
	}
	spec.EvalCache = func(k int) anneal.EvalCache {
		scope := fmt.Sprintf("case=%d|fid=%s|seed=%d|rms=%s|k=%d", def.id, fid, seed, name, k)
		if def.variant != "" {
			scope += "|variant=" + def.variant
		}
		return &annealCache{cache: run.Cache, scope: scope}
	}
	spec.Progress = func(pt scale.Point) {
		run.Report.PointDone()
		if progress != nil {
			progress(name, pt)
		}
	}
	return scale.Measure(ev, spec)
}
