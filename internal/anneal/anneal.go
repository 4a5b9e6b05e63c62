// Package anneal implements the simulated annealing search the paper
// uses to tune the RMS's scaling enablers: a bounded-dimension
// minimizer with geometric cooling, random restarts, and an evaluation
// cache, following the classical formulation of van Laarhoven and the
// practice notes of Ingber that the paper cites.
package anneal

import (
	"fmt"
	"math"

	"rmscale/internal/sim"
)

// Dim bounds one search dimension. Integer dimensions are snapped to
// whole numbers.
type Dim struct {
	Name     string
	Min, Max float64
	Integer  bool
}

// clamp forces v into the dimension's range (and grid, for integers).
func (d Dim) clamp(v float64) float64 {
	if v < d.Min {
		v = d.Min
	}
	if v > d.Max {
		v = d.Max
	}
	if d.Integer {
		v = math.Round(v)
		if v < d.Min {
			v = math.Ceil(d.Min)
		}
		if v > d.Max {
			v = math.Floor(d.Max)
		}
	}
	return v
}

// Objective evaluates a candidate point. Cost is minimized; Penalty is
// added on top of cost and should be positive for constraint violations
// (e.g. efficiency outside the isoefficiency band) and zero inside the
// feasible region. Feasible marks points satisfying every constraint.
type Objective func(x []float64) Result

// Result is one evaluation.
type Result struct {
	Cost     float64
	Penalty  float64
	Feasible bool
	// Aux carries evaluator-specific payload (e.g. the full simulation
	// summary) back to the caller alongside the best point.
	Aux any
}

// total is the annealing energy.
func (r Result) total() float64 { return r.Cost + r.Penalty }

// EvalCache memoizes objective evaluations across searches. Minimize
// consults it (keyed by PointKey) before calling the objective and
// stores every fresh evaluation back. Implementations must return
// results exactly as stored — the measurement framework relies on a
// cache hit being indistinguishable from re-evaluating — and must be
// safe for use from the single goroutine running Minimize. The zero
// behaviour (nil Cache) is a private per-call map.
type EvalCache interface {
	Get(key string) (Result, bool)
	Put(key string, r Result)
}

// mapCache is the default per-call memo.
type mapCache map[string]Result

func (m mapCache) Get(key string) (Result, bool) { r, ok := m[key]; return r, ok }
func (m mapCache) Put(key string, r Result)      { m[key] = r }

// Options tunes the search.
type Options struct {
	// Iters is the number of annealing steps per restart.
	Iters int
	// Restarts is how many independent chains to run (>= 1).
	Restarts int
	// T0 is the initial temperature as a fraction of the first
	// energy's magnitude; 0 picks 0.3.
	T0 float64
	// Cooling is the geometric cooling factor per step; 0 picks a
	// schedule that reaches ~1% of T0 by the last iteration.
	Cooling float64
	// Step is the initial neighbour step size as a fraction of each
	// dimension's range; 0 picks 0.25. The step shrinks with the
	// temperature.
	Step float64
	// Seed feeds the deterministic random streams.
	Seed int64
	// Cache, when non-nil, supplies the evaluation memo — e.g. a
	// persistent content-addressed store shared across runs — in place
	// of the private per-call map.
	Cache EvalCache
}

func (o Options) withDefaults() Options {
	if o.Iters <= 0 {
		o.Iters = 60
	}
	if o.Restarts <= 0 {
		o.Restarts = 2
	}
	if o.T0 <= 0 {
		o.T0 = 0.3
	}
	if o.Cooling <= 0 || o.Cooling >= 1 {
		o.Cooling = math.Pow(0.01, 1/float64(max(o.Iters-1, 1)))
	}
	if o.Step <= 0 {
		o.Step = 0.25
	}
	return o
}

// Outcome reports the best point found. Evals counts the distinct
// points the search visited and CacheHit its revisits, whether or not
// a shared EvalCache already held a point, so a search over a warm
// cache reports exactly what a cold one does.
type Outcome struct {
	X        []float64
	Result   Result
	Evals    int
	CacheHit int
}

// Minimize runs the annealing search from the given start point (which
// may be nil to start at the centre of the box). It is deterministic in
// Options.Seed.
func Minimize(dims []Dim, start []float64, obj Objective, o Options) (Outcome, error) {
	if len(dims) == 0 {
		return Outcome{}, fmt.Errorf("anneal: no dimensions")
	}
	for _, d := range dims {
		if d.Max < d.Min {
			return Outcome{}, fmt.Errorf("anneal: dimension %q has Max < Min", d.Name)
		}
	}
	if obj == nil {
		return Outcome{}, fmt.Errorf("anneal: nil objective")
	}
	o = o.withDefaults()

	src := sim.NewSource(o.Seed)
	cache := o.Cache
	if cache == nil {
		cache = make(mapCache)
	}
	out := Outcome{}
	visited := make(map[string]bool)
	evaluate := func(x []float64) Result {
		key := PointKey(x)
		if visited[key] {
			out.CacheHit++
		} else {
			visited[key] = true
			out.Evals++
		}
		if r, ok := cache.Get(key); ok {
			return r
		}
		r := obj(x)
		cache.Put(key, r)
		return r
	}

	var best []float64
	var bestR Result
	haveBest := false

	for restart := 0; restart < o.Restarts; restart++ {
		st := src.Stream(fmt.Sprintf("chain:%d", restart))
		cur := make([]float64, len(dims))
		switch {
		case restart == 0 && start != nil:
			copy(cur, start)
		default:
			for i, d := range dims {
				cur[i] = st.Uniform(d.Min, d.Max)
			}
		}
		for i, d := range dims {
			cur[i] = d.clamp(cur[i])
		}
		curR := evaluate(cur)
		if !haveBest || better(curR, bestR) {
			best, bestR, haveBest = append([]float64(nil), cur...), curR, true
		}

		temp := o.T0 * (math.Abs(curR.total()) + 1)
		step := o.Step
		for it := 0; it < o.Iters; it++ {
			cand := neighbour(dims, cur, step, st)
			candR := evaluate(cand)
			d := candR.total() - curR.total()
			if d <= 0 || st.Float64() < math.Exp(-d/math.Max(temp, 1e-12)) {
				cur, curR = cand, candR
			}
			if better(candR, bestR) {
				best, bestR = append([]float64(nil), cand...), candR
			}
			temp *= o.Cooling
			step = o.Step * (0.15 + 0.85*math.Pow(o.Cooling, float64(it)))
		}
	}
	out.X = best
	out.Result = bestR
	return out, nil
}

// better orders results: feasible beats infeasible; within the same
// feasibility class, lower energy wins.
func better(a, b Result) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	return a.total() < b.total()
}

// neighbour perturbs one or two random dimensions by a temperature-
// scaled step.
func neighbour(dims []Dim, cur []float64, step float64, st *sim.Stream) []float64 {
	out := append([]float64(nil), cur...)
	n := 1
	if len(dims) > 1 && st.Bool(0.35) {
		n = 2
	}
	for _, i := range st.Sample(len(dims), n) {
		d := dims[i]
		span := d.Max - d.Min
		if span == 0 {
			continue
		}
		delta := st.Normal(0, step*span)
		if d.Integer && math.Abs(delta) < 1 {
			if delta >= 0 {
				delta = 1
			} else {
				delta = -1
			}
		}
		out[i] = d.clamp(out[i] + delta)
	}
	return out
}

// PointKey builds the evaluation-cache key for a candidate point, with
// enough precision to distinguish meaningfully different points.
func PointKey(x []float64) string {
	b := make([]byte, 0, len(x)*12)
	for _, v := range x {
		b = appendFloat(b, v)
	}
	return string(b)
}

func appendFloat(b []byte, v float64) []byte {
	// Quantize to 5 significant decimals; enabler landscapes are far
	// smoother than that.
	q := math.Round(v*1e5) / 1e5
	return append(b, fmt.Sprintf("%g|", q)...)
}
