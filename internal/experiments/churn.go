package experiments

import (
	"fmt"

	"rmscale/internal/grid"
	"rmscale/internal/scale"
	"rmscale/internal/stats"
)

// This file is the degraded-mode ("scalability under churn")
// experiment: one of the paper's cases re-run under a fixed fault load
// — scheduler and estimator crash/repair cycles, protocol message loss
// and access-link outages — with the isoefficiency enablers re-tuned
// per model at every scale factor, exactly as the fault-free
// measurement does. Comparing the two tuned curves answers a question
// the paper leaves open: whether a model's scalability ranking
// survives when the RMS itself is allowed to fail.

// churnTargetResponse is the response time at which a response has
// lost half its value in the J&W productivity comparison: twice the
// mean job runtime, i.e. a job that waited as long as it ran.
const churnTargetResponse = 2 * meanRuntime

// ChurnFaults is the fixed fault load of the degraded-mode experiment.
// The magnitudes are chosen against the experiment horizons (3000-5000
// time units): every scheduler and estimator crashes a handful of
// times per run, a few percent of protocol messages are lost, and
// access links suffer occasional outage windows, with the
// timeout/retry path armed.
func ChurnFaults() grid.FaultModel {
	return grid.FaultModel{
		SchedulerMTBF: 1200, SchedulerRepair: 120,
		EstimatorMTBF: 1200, EstimatorRepair: 120,
		MsgLossProb:    0.02,
		LinkOutageMTBF: 2000, LinkOutageDuration: 50,
		RetryTimeout: 25, MaxRetries: 3,
	}
}

// degraded returns def re-run under the fault load fm. The variant tag
// keeps its task IDs and cache scopes disjoint from the plain case.
func degraded(def caseDef, fm grid.FaultModel) caseDef {
	base := def.config
	def.variant = "churn"
	def.title += " under churn"
	def.config = func(fid Fidelity, seed int64, k int, x []float64) grid.Config {
		cfg := base(fid, seed, k, x)
		cfg.Faults = fm
		return cfg
	}
	return def
}

// ChurnResult pairs a case's fault-free and degraded measurements.
type ChurnResult struct {
	Case     int
	Title    string
	Fidelity Fidelity
	Faults   grid.FaultModel
	// Baseline is the fault-free case result; Degraded the same case
	// re-tuned under the fault load.
	Baseline *Result
	Degraded *Result
}

// RunChurnSpec runs the degraded-mode experiment for one case: the
// fault-free baseline and the degraded re-run share one work-stealing
// pool, so their 2 x 7 model jobs shard across the workers together.
func RunChurnSpec(id int, fm grid.FaultModel, spec RunSpec) (*ChurnResult, error) {
	if err := fm.Validate(); err != nil {
		return nil, err
	}
	if !fm.Enabled() {
		return nil, fmt.Errorf("experiments: churn run needs a non-zero fault model")
	}
	def, err := caseByID(id, spec.Fidelity)
	if err != nil {
		return nil, err
	}
	results, err := runDefs([]caseDef{def, degraded(def, fm)}, spec)
	if err != nil {
		return nil, err
	}
	return &ChurnResult{
		Case:     def.id,
		Title:    fmt.Sprintf("Scalability under churn, case %d", def.id),
		Fidelity: spec.Fidelity,
		Faults:   fm,
		Baseline: results[0],
		Degraded: results[1],
	}, nil
}

// PsiFigure assembles the J&W productivity-scalability curves psi(k)
// of the fault-free and degraded runs side by side; the degraded
// series carry a "*" suffix. Psi folds throughput, response time and
// cost into one number, which makes it the right lens here: churn
// costs show up as lost throughput and retry-inflated response times
// even when the overhead curve G(k) moves little.
func (r *ChurnResult) PsiFigure() (*stats.SeriesSet, error) {
	ss := &stats.SeriesSet{
		Title:  r.Title + " (J&W psi)",
		XLabel: "k", YLabel: "psi(k) = P(k)/P(1)",
	}
	params := scale.JWParams{TargetResponse: churnTargetResponse}
	for _, name := range r.Baseline.Order {
		mb, ok := r.Baseline.Measurements[name]
		if !ok {
			continue
		}
		md, ok := r.Degraded.Measurements[name]
		if !ok {
			continue
		}
		jb, err := scale.JogalekarWoodside(mb, params)
		if err != nil {
			return nil, err
		}
		jd, err := scale.JogalekarWoodside(md, params)
		if err != nil {
			return nil, err
		}
		ss.Add(jb.JWSeries())
		deg := jd.JWSeries()
		deg.Name = name + "*"
		ss.Add(deg)
	}
	return ss, nil
}

// Table renders the churn comparison at the top scale factor: the
// normalized overhead growth g(k) and J&W psi(k) of the fault-free
// and degraded runs side by side, plus the degraded run's fault
// counters. A model whose psi* stays close to its psi is scalable
// under churn, not just in the fault-free lab.
func (r *ChurnResult) Table() (string, error) {
	out := r.Title + fmt.Sprintf(" (top scale factor, fidelity %s)\n", r.Fidelity)
	out += fmt.Sprintf("%-8s %8s %8s %8s %8s %8s %10s %8s\n",
		"model", "g(k)", "g*(k)", "psi(k)", "psi*(k)", "lost*", "failover*", "retry*")
	params := scale.JWParams{TargetResponse: churnTargetResponse}
	for _, name := range r.Baseline.Order {
		mb, ok := r.Baseline.Measurements[name]
		if !ok {
			continue
		}
		md, ok := r.Degraded.Measurements[name]
		if !ok {
			continue
		}
		jb, err := scale.JogalekarWoodside(mb, params)
		if err != nil {
			return "", err
		}
		jd, err := scale.JogalekarWoodside(md, params)
		if err != nil {
			return "", err
		}
		last := len(md.Points) - 1
		top := md.Points[last].Obs
		out += fmt.Sprintf("%-8s %8.2f %8.2f %8.2f %8.2f %8.1f %10.1f %8.1f\n",
			name,
			lastOf(mb.NormalizedG()), lastOf(md.NormalizedG()),
			lastOf(jb.Psi), lastOf(jd.Psi),
			top.JobsLost, top.Failovers, top.Retries)
	}
	return out, nil
}

// lastOf returns the final element, or NaN-free zero for empty input.
func lastOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}
