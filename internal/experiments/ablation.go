package experiments

import (
	"fmt"

	"rmscale/internal/audit"
	"rmscale/internal/grid"
	"rmscale/internal/rms"
	"rmscale/internal/scale"
)

// AblationRow is one variant of an ablation study: the design choice
// toggled and the resulting accounting.
type AblationRow struct {
	Variant    string
	G          float64
	Efficiency float64
	Success    float64
	Updates    int
	Suppressed int
	Digests    int
	Evals      int // tuner evaluations, when the ablation tunes
}

// AblationResult is a small comparison table.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// WriteTable renders the ablation as an aligned table.
func (a *AblationResult) Table() string {
	out := a.Title + "\n"
	out += fmt.Sprintf("%-26s %10s %8s %8s %9s %10s %8s %6s\n",
		"variant", "G", "E", "success", "updates", "suppressed", "digests", "evals")
	for _, r := range a.Rows {
		out += fmt.Sprintf("%-26s %10.1f %8.3f %8.3f %9d %10d %8d %6d\n",
			r.Variant, r.G, r.Efficiency, r.Success, r.Updates, r.Suppressed, r.Digests, r.Evals)
	}
	return out
}

// ablationConfig is the shared scenario: the stressed base grid under
// LOWEST, where the update path dominates the tunable overhead.
func ablationConfig(fid Fidelity, seed int64) grid.Config {
	cfg := grid.DefaultConfig()
	cfg.Seed = seed
	h, drain := horizon(fid)
	cfg.Horizon = h
	cfg.Drain = drain
	cfg.Workload.Horizon = h
	return cfg
}

// runAblationVariant executes one audited simulation and extracts a
// row.
func runAblationVariant(name string, cfg grid.Config, model string) (AblationRow, error) {
	p, err := rms.ByName(model)
	if err != nil {
		return AblationRow{}, err
	}
	e, err := grid.New(cfg, p)
	if err != nil {
		return AblationRow{}, err
	}
	sum, err := audit.Run(e)
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Variant:    name,
		G:          sum.G,
		Efficiency: sum.Efficiency,
		Success:    sum.SuccessRate,
		Updates:    e.Metrics.UpdatesSent,
		Suppressed: e.Metrics.UpdatesSuppressed,
		Digests:    e.Metrics.DigestsSent,
	}, nil
}

// AblateSuppression compares the paper's change-suppressed periodic
// updates against always-send updates (SuppressDelta = 0 disables
// suppression for any load change; a huge delta suppresses everything
// but freshly idle resources).
func AblateSuppression(fid Fidelity, seed int64) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: status update suppression (LOWEST, base grid)"}
	variants := []struct {
		name  string
		delta float64
	}{
		{"suppression (paper, 0.5)", 0.5},
		{"no suppression (0)", 0},
		{"aggressive (4.0)", 4.0},
	}
	for _, v := range variants {
		cfg := ablationConfig(fid, seed)
		cfg.Protocol.SuppressDelta = v.delta
		row, err := runAblationVariant(v.name, cfg, "LOWEST")
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblateEstimators compares direct resource-to-scheduler updates
// against the estimator dissemination layer at increasing layer sizes.
func AblateEstimators(fid Fidelity, seed int64) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: estimator dissemination layer (LOWEST, base grid)"}
	for _, n := range []int{0, 2, 8, 16} {
		cfg := ablationConfig(fid, seed)
		cfg.Spec.Estimators = n
		name := "direct updates"
		if n > 0 {
			name = fmt.Sprintf("%d estimators", n)
		}
		row, err := runAblationVariant(name, cfg, "LOWEST")
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblateMiddleware compares the S-I model with its grid middleware
// provisioned generously, tightly, and catastrophically.
func AblateMiddleware(fid Fidelity, seed int64) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: grid middleware service time (S-I, base grid)"}
	for _, v := range []struct {
		name string
		t    float64
	}{
		{"fast middleware (0.1)", 0.1},
		{"paper default (0.5)", 0.5},
		{"slow middleware (5.0)", 5.0},
	} {
		cfg := ablationConfig(fid, seed)
		cfg.Protocol.MiddlewareTime = v.t
		row, err := runAblationVariant(v.name, cfg, "S-I")
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblateTuner compares the paper's simulated annealing against an
// equal-budget grid search on one measurement point: same model, same
// scale, same isoefficiency band.
func AblateTuner(fid Fidelity, seed int64) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: simulated annealing vs grid search (LOWEST, k=2)"}
	def := Case1(fid)
	cache := grid.NewSubstrateCache()

	for _, tuner := range []scale.Tuner{scale.TunerAnneal, scale.TunerGrid} {
		p, err := rms.ByName("LOWEST")
		if err != nil {
			return nil, err
		}
		ev := scale.EvaluatorFunc(func(k int, x []float64) (scale.Observation, error) {
			cfg := def.config(fid, seed, k, x)
			sub, err := cache.Get(cfg)
			if err != nil {
				return scale.Observation{}, err
			}
			fresh, _ := rms.ByName(p.Name())
			e, err := grid.NewWith(cfg, fresh, sub)
			if err != nil {
				return scale.Observation{}, err
			}
			sum, err := audit.Run(e)
			if err != nil {
				return scale.Observation{}, err
			}
			return scale.Observation{
				F: sum.F, G: sum.G, H: sum.H,
				Efficiency:  sum.Efficiency,
				SuccessRate: sum.SuccessRate,
			}, nil
		})
		opts := fid.tuning()
		opts.Seed = seed
		m, err := scale.Measure(ev, scale.MeasureSpec{
			RMS:      "LOWEST",
			Ks:       []int{2},
			Enablers: def.enablers,
			Band:     scale.PaperBand(),
			Anneal:   opts,
			Tuner:    tuner,
		})
		if err != nil {
			return nil, err
		}
		pt := m.Points[0]
		res.Rows = append(res.Rows, AblationRow{
			Variant:    tuner.String(),
			G:          pt.G,
			Efficiency: pt.Obs.Efficiency,
			Success:    pt.Obs.SuccessRate,
			Evals:      pt.Evals,
		})
	}
	return res, nil
}

// AblateFaults exercises the failure-injection path: the same grid with
// healthy resources, crashing resources, and lossy update delivery.
func AblateFaults(fid Fidelity, seed int64) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: fault injection (LOWEST, base grid)"}
	for _, v := range []struct {
		name string
		mut  func(*grid.Config)
	}{
		{"healthy", func(*grid.Config) {}},
		{"crashes (MTBF 2000)", func(c *grid.Config) {
			c.Faults.ResourceMTBF = 2000
			c.Faults.RepairTime = 200
		}},
		{"update loss 20%", func(c *grid.Config) { c.Faults.UpdateLossProb = 0.2 }},
	} {
		cfg := ablationConfig(fid, seed)
		v.mut(&cfg)
		row, err := runAblationVariant(v.name, cfg, "LOWEST")
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AllAblations runs every ablation study.
func AllAblations(fid Fidelity, seed int64) ([]*AblationResult, error) {
	runs := []func(Fidelity, int64) (*AblationResult, error){
		AblateSuppression, AblateEstimators, AblateMiddleware, AblateTuner, AblateFaults,
	}
	var out []*AblationResult
	for _, run := range runs {
		r, err := run(fid, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
