package service

import (
	"context"
	"encoding/json"
	"fmt"

	"rmscale/internal/audit"
	"rmscale/internal/experiments"
	"rmscale/internal/grid"
	"rmscale/internal/rms"
)

// ExecFunc turns a validated spec into its result payload. dir, when
// non-empty, is the experiment's private run directory (the runner
// caches evaluations there and writes runstate.json for progress
// streaming, so a re-execution after a restart replays the cache).
// The contract that makes the shared store sound: the payload must be
// a pure function of the spec — byte-identical on every execution —
// which the default executor guarantees by running seeded simulations
// and encoding with the deterministic JSON codec.
type ExecFunc func(ctx context.Context, spec ExperimentSpec, dir string) ([]byte, error)

// Result is the stored payload envelope: the spec that produced it
// plus exactly one kind-specific body. Fetching a result is therefore
// self-describing — a client can recover what was run without keeping
// its own submission log.
type Result struct {
	Spec    ExperimentSpec           `json:"spec"`
	Summary *grid.Summary            `json:"summary,omitempty"` // sim
	Case    *experiments.Result      `json:"case,omitempty"`    // case
	Churn   *experiments.ChurnResult `json:"churn,omitempty"`   // churn
}

// Executor is the production ExecFunc: it runs the spec against the
// real simulation and experiment layers.
type Executor struct {
	// CaseWorkers sizes the runner pool inside one case/churn
	// execution; <= 0 picks 1, so concurrent experiments shard over
	// daemon shards rather than oversubscribing each other.
	CaseWorkers int
}

// Run executes spec and encodes its Result envelope.
func (x Executor) Run(ctx context.Context, spec ExperimentSpec, dir string) ([]byte, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	res := Result{Spec: spec}
	switch spec.Kind {
	case KindSim:
		sum, err := runSim(spec)
		if err != nil {
			return nil, err
		}
		res.Summary = &sum
	case KindCase, KindChurn:
		fid, err := experiments.ParseFidelity(spec.Fidelity)
		if err != nil {
			return nil, err
		}
		workers := x.CaseWorkers
		if workers <= 0 {
			workers = 1
		}
		rs := experiments.RunSpec{
			Fidelity: fid,
			Seed:     spec.Seed,
			Workers:  workers,
			Dir:      dir,
			Context:  ctx,
		}
		if spec.Kind == KindCase {
			r, err := experiments.RunCaseSpec(spec.Case, rs)
			if err != nil {
				return nil, err
			}
			res.Case = r
		} else {
			r, err := experiments.RunChurnSpec(spec.Case, experiments.ChurnFaults(), rs)
			if err != nil {
				return nil, err
			}
			res.Churn = r
		}
	default:
		return nil, fmt.Errorf("service: executor: unknown spec kind %q", spec.Kind)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("service: encoding result of %s: %w", spec, err)
	}
	return append(b, '\n'), nil
}

// runSim is one audited engine run: the same simulate discipline the
// experiment layer uses (fresh policy, audit.Run), without the tuning
// loop around it.
func runSim(spec ExperimentSpec) (grid.Summary, error) {
	p, err := rms.ByName(spec.Model)
	if err != nil {
		return grid.Summary{}, err
	}
	cfg := grid.DefaultConfig()
	cfg.Seed = spec.Seed
	if spec.Horizon > 0 {
		cfg.Horizon = spec.Horizon
		cfg.Drain = spec.Horizon / 4
		cfg.Workload.Horizon = spec.Horizon
	}
	e, err := grid.New(cfg, p)
	if err != nil {
		return grid.Summary{}, err
	}
	return audit.Run(e)
}
