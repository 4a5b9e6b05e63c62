package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"rmscale/internal/anneal"
	"rmscale/internal/grid"
	"rmscale/internal/rms"
	"rmscale/internal/runner"
	"rmscale/internal/scale"
)

// RunSpec configures experiment execution through the runner
// subsystem. The zero values of the execution fields reproduce the
// legacy behaviour: GOMAXPROCS workers, in-memory caching only.
type RunSpec struct {
	// Fidelity selects the runtime budget.
	Fidelity Fidelity
	// Seed is the master random seed; results are deterministic in it
	// regardless of Workers or cache warmth.
	Seed int64
	// Workers sizes the work-stealing pool; <= 0 picks GOMAXPROCS.
	Workers int
	// Dir, when non-empty, is the run directory: every evaluation is
	// cached on disk under its content address and runstate.json
	// tracks progress. A rerun over the same directory replays what
	// the cache holds and simulates only the rest; runs of any seed or
	// fidelity may share one directory.
	Dir string
	// Progress, when non-nil, receives each tuned (model, point) as it
	// lands.
	Progress func(string, scale.Point)
	// Log, when non-nil, receives the runner's per-job progress lines.
	Log io.Writer
	// Context cancels the run early; nil means Background.
	Context context.Context
}

// Validate reports the first nonsensical execution parameter. Every
// Run*Spec entry point validates up front, so a bad spec fails before
// any cache state is touched. Every message carries the offending
// value and the spec it came from, so a rejected spec can be fixed
// from the error alone.
func (s RunSpec) Validate() error {
	switch s.Fidelity {
	case Smoke, Quick, Full:
	default:
		return fmt.Errorf("experiments: %s: fidelity %d is not one of %s (%d), %s (%d) or %s (%d)",
			s, int(s.Fidelity), Smoke, int(Smoke), Quick, int(Quick), Full, int(Full))
	}
	if s.Workers < 0 {
		return fmt.Errorf("experiments: %s: Workers %d is negative; use 0 for GOMAXPROCS", s, s.Workers)
	}
	if s.Seed < 0 {
		// Refused as a caller error, most likely a stray minus sign:
		// every recorded run and golden uses a non-negative seed.
		return fmt.Errorf("experiments: %s: Seed %d is negative; seeds are non-negative", s, s.Seed)
	}
	return nil
}

// String renders the spec's identity fields — the ones that feed the
// simulation cache keys — in declaration order, for log lines and
// diagnostics; execution-only fields (Workers, Dir, callbacks) are
// deliberately absent, exactly as they are absent from the cache keys.
func (s RunSpec) String() string {
	return fmt.Sprintf("runspec{fidelity=%s seed=%d}", s.Fidelity, s.Seed)
}

// caseByID maps a case number to its definition.
func caseByID(id int, fid Fidelity) (caseDef, error) {
	switch id {
	case 1:
		return Case1(fid), nil
	case 2:
		return Case2(fid), nil
	case 3:
		return Case3(fid), nil
	case 4:
		return Case4(fid), nil
	}
	return caseDef{}, fmt.Errorf("experiments: unknown case %d", id)
}

// RunCaseSpec executes one experiment case under the spec.
func RunCaseSpec(id int, spec RunSpec) (*Result, error) {
	rs, err := RunCasesSpec([]int{id}, spec)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// RunAllSpec executes all four cases in one runner pool, so the cases'
// 4 x 7 model jobs shard across the workers together instead of
// draining case by case.
func RunAllSpec(spec RunSpec) ([]*Result, error) {
	return RunCasesSpec([]int{1, 2, 3, 4}, spec)
}

// RunCasesSpec executes the given cases on a shared work-stealing
// pool. Each case submits one parent task that spawns a tuning task
// per RMS model onto the submitting worker's deque; sibling workers
// steal the models as they go idle.
func RunCasesSpec(ids []int, spec RunSpec) ([]*Result, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("experiments: no cases given")
	}
	seen := make(map[int]bool, len(ids))
	defs := make([]caseDef, len(ids))
	for i, id := range ids {
		if seen[id] {
			// A caller error: the duplicate would tune every model of
			// the case a second time, for an identical result, racing
			// the first for the same cache entries, whose atomic disk
			// writes assume one writer per path.
			return nil, fmt.Errorf("experiments: duplicate case %d", id)
		}
		seen[id] = true
		def, err := caseByID(id, spec.Fidelity)
		if err != nil {
			return nil, err
		}
		defs[i] = def
	}
	return runDefs(defs, spec)
}

// runDefs executes arbitrary case definitions (including variant-tagged
// ones, as the churn experiment submits) on one shared pool.
func runDefs(defs []caseDef, spec RunSpec) ([]*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	run, err := runner.Start(runner.Options{
		Workers: spec.Workers,
		Dir:     spec.Dir,
		Log:     spec.Log,
		Context: spec.Context,
	})
	if err != nil {
		return nil, err
	}

	models := rms.All()
	run.Report.AddTotal(len(defs) * (1 + len(models)))
	results := make([]*Result, len(defs))
	var mu sync.Mutex
	for i, def := range defs {
		i, def := i, def
		results[i] = &Result{
			Case:         def.id,
			Title:        def.title,
			Variant:      def.variant,
			Fidelity:     spec.Fidelity,
			Measurements: make(map[string]*scale.Measurement),
			Order:        rms.Names(),
		}
		// One substrate cache per case: models at the same (k, x)
		// share the expensive topology+routing build.
		substrates := grid.NewSubstrateCache()
		run.Pool.Submit(runner.Task{
			ID: def.name(),
			Run: func(tc *runner.TaskCtx) error {
				for _, p := range rms.All() {
					p := p
					tc.Spawn(runner.Task{
						ID: fmt.Sprintf("%s/%s", def.name(), p.Name()),
						Run: func(tc *runner.TaskCtx) error {
							m, err := measureModel(tc, run, def, spec.Fidelity,
								spec.Seed, p, substrates, spec.Progress)
							if err != nil {
								return fmt.Errorf("experiments: %s, model %s: %w",
									def.name(), p.Name(), err)
							}
							mu.Lock()
							results[i].Measurements[p.Name()] = m
							mu.Unlock()
							return nil
						},
					})
				}
				return nil
			},
		})
	}
	if err := run.Wait(); err != nil {
		return nil, err
	}
	return results, nil
}

// encodeCached and decodeCached fix the cache payload codec. JSON
// round-trips float64 exactly (shortest representation that parses
// back to the same bits), which is what lets a cache hit be
// byte-identical to a fresh simulation.
func encodeCached(v any) ([]byte, error) { return json.Marshal(v) }

func decodeCached(b []byte, v any) error { return json.Unmarshal(b, v) }

// annealEntry is the persisted form of one tuner evaluation.
type annealEntry struct {
	Cost     float64
	Penalty  float64
	Feasible bool
	Obs      scale.Observation
}

// annealCache adapts the runner's content-addressed store to the
// annealer's EvalCache hook. The scope string carries everything that
// determines the objective besides the candidate point itself (case,
// fidelity, seed, model, k); the annealer's quantized point key
// completes the address. Error sentinels (whose Aux is not an
// Observation) are never stored, so a transient failure cannot poison
// the cache.
type annealCache struct {
	cache *runner.Cache
	scope string
}

func (c *annealCache) key(pointKey string) (runner.Key, error) {
	return runner.KeyOf("anneal/v1", c.scope, pointKey)
}

// Get implements anneal.EvalCache.
func (c *annealCache) Get(pointKey string) (anneal.Result, bool) {
	k, err := c.key(pointKey)
	if err != nil {
		return anneal.Result{}, false
	}
	b, ok := c.cache.Get(k)
	if !ok {
		return anneal.Result{}, false
	}
	var e annealEntry
	if err := decodeCached(b, &e); err != nil {
		return anneal.Result{}, false
	}
	return anneal.Result{Cost: e.Cost, Penalty: e.Penalty, Feasible: e.Feasible, Aux: e.Obs}, true
}

// Put implements anneal.EvalCache.
func (c *annealCache) Put(pointKey string, r anneal.Result) {
	obs, ok := r.Aux.(scale.Observation)
	if !ok {
		return
	}
	k, err := c.key(pointKey)
	if err != nil {
		return
	}
	b, err := encodeCached(annealEntry{Cost: r.Cost, Penalty: r.Penalty, Feasible: r.Feasible, Obs: obs})
	if err != nil {
		return
	}
	_ = c.cache.Put(k, b)
}
