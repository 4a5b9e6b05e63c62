package scale

import (
	"fmt"
	"math"

	"rmscale/internal/anneal"
)

// MeasureSpec configures the paper's four-step measurement procedure
// (Figure 1's flowchart):
//
//	Step 1: choose a feasible efficiency value to hold (Band).
//	Step 2: scale the RMS or the RP along the scaling path (Ks).
//	Step 3: tune the scaling enablers by simulated annealing so the
//	        overhead G(k) is minimal while efficiency stays at the
//	        chosen value.
//	Step 4: compute the scalability of the RMS from the slope of G(k).
type MeasureSpec struct {
	RMS      string
	Ks       []int
	Enablers []Enabler
	Band     Band
	Anneal   anneal.Options
	// Tuner selects the optimizer; the zero value is the paper's
	// simulated annealing. TunerGrid is the ablation baseline; its
	// per-dimension resolution derives from the annealing iteration
	// budget.
	Tuner Tuner
	// WarmStart seeds each scale factor's search with the previous
	// factor's tuned enablers, the natural continuation along the
	// scaling path. The base factor starts from Enabler.Init.
	WarmStart bool
	// Progress, when non-nil, receives each tuned point as it lands.
	Progress func(Point)
	// EvalCache, when non-nil, supplies the tuner's evaluation memo at
	// each scale factor (the runner's persistent content-addressed
	// cache), replacing the annealer's private per-search map.
	EvalCache func(k int) anneal.EvalCache
}

// Validate reports the first specification error.
func (s MeasureSpec) Validate() error {
	if len(s.Ks) == 0 {
		return fmt.Errorf("scale: no scale factors")
	}
	last := 0
	for _, k := range s.Ks {
		if k < 1 {
			return fmt.Errorf("scale: scale factor %d < 1", k)
		}
		if k <= last {
			return fmt.Errorf("scale: scale factors must be strictly increasing")
		}
		last = k
	}
	if len(s.Enablers) == 0 {
		return fmt.Errorf("scale: no enablers to tune")
	}
	for _, e := range s.Enablers {
		if err := e.Validate(); err != nil {
			return err
		}
	}
	return s.Band.Validate()
}

// Measure runs the measurement procedure for one RMS against the given
// evaluator and returns the tuned G(k) curve with its derived
// scalability quantities.
func Measure(ev Evaluator, spec MeasureSpec) (*Measurement, error) {
	if ev == nil {
		return nil, fmt.Errorf("scale: nil evaluator")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Measurement{RMS: spec.RMS, Enablers: spec.Enablers, Band: spec.Band}

	dims := make([]anneal.Dim, len(spec.Enablers))
	start := make([]float64, len(spec.Enablers))
	for i, e := range spec.Enablers {
		dims[i] = e.dim()
		start[i] = e.Init
	}

	for _, k := range spec.Ks {
		k := k
		var evalErr error
		obj := func(x []float64) anneal.Result {
			obs, err := ev.Evaluate(k, x)
			if err != nil {
				evalErr = err
				return anneal.Result{Cost: 0, Penalty: 1e18, Feasible: false}
			}
			// Band violations weigh enough that a 1% efficiency
			// shortfall outweighs halving the overhead.
			weight := 100 * (obs.G + obs.F + 1)
			pen := spec.Band.Penalty(obs.Efficiency) * weight
			return anneal.Result{
				Cost:     obs.G,
				Penalty:  pen,
				Feasible: spec.Band.Feasible(obs.Efficiency),
				Aux:      obs,
			}
		}
		var out anneal.Outcome
		var err error
		switch spec.Tuner {
		case TunerGrid:
			// Match the annealer's evaluation budget per point:
			// points^dims ~= iters.
			points := int(math.Round(math.Pow(float64(max(spec.Anneal.Iters, 8)),
				1/float64(len(dims)))))
			out, err = gridSearch(dims, obj, points)
		default:
			o := spec.Anneal
			o.Seed = spec.Anneal.Seed + int64(k)*7919
			if spec.EvalCache != nil {
				o.Cache = spec.EvalCache(k)
			}
			out, err = anneal.Minimize(dims, start, obj, o)
		}
		if err != nil {
			return nil, fmt.Errorf("scale: tuning %s at k=%d: %w", spec.RMS, k, err)
		}
		if evalErr != nil {
			return nil, fmt.Errorf("scale: evaluating %s at k=%d: %w", spec.RMS, k, evalErr)
		}
		obs := out.Result.Aux.(Observation)
		p := Point{
			K:        k,
			G:        obs.G,
			Enablers: out.X,
			Obs:      obs,
			Feasible: out.Result.Feasible,
			InBand:   spec.Band.Contains(obs.Efficiency),
			Evals:    out.Evals,
		}
		m.Points = append(m.Points, p)
		if spec.Progress != nil {
			spec.Progress(p)
		}
		if spec.WarmStart {
			start = append([]float64(nil), out.X...)
		}
	}
	return m, nil
}
