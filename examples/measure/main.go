// Measure demonstrates the paper's core contribution end to end: the
// isoefficiency scalability measurement of one RMS. It scales a grid by
// network size, lets the simulated annealing tuner re-tune the scaling
// enablers at each factor so efficiency stays in the band, and reports
// the minimal-overhead curve G(k), its slopes, and the isoefficiency
// condition check. It then reads the tuned curve through the paper's
// identities: the RP overhead h(k), the useful work f(k) that
// Equation 1 requires, E(k) recomputed from f, g and h beside the
// measured E(k), and the Jogalekar–Woodside metric the paper compares
// itself against.
//
//	go run ./examples/measure
package main

import (
	"fmt"
	"log"

	"rmscale"
)

func main() {
	const (
		baseClusters = 6
		clusterSize  = 8
		utilization  = 0.9
		meanRuntime  = 524.2 // the workload's mean job runtime
	)

	cache := rmscale.NewSubstrateCache()
	model := rmscale.NewLowest()

	// The evaluator builds and runs the grid at scale factor k with
	// the tuner's enabler vector applied: x[0] is the status update
	// interval, x[1] the neighbourhood size, x[2] the link delay
	// scale (the paper's Table 2 enabler set).
	ev := rmscale.EvaluatorFunc(func(k int, x []float64) (rmscale.Observation, error) {
		cfg := rmscale.DefaultConfig()
		cfg.Spec = rmscale.GridSpec{Clusters: baseClusters * k, ClusterSize: clusterSize}
		cfg.Workload.Clusters = cfg.Spec.Clusters
		cfg.Workload.ArrivalRate = utilization * float64(cfg.Spec.Clusters*clusterSize) / meanRuntime
		cfg.Workload.Horizon = 2000
		cfg.Horizon = 2000
		cfg.Drain = 2500
		cfg.Enablers.UpdateInterval = x[0]
		cfg.Enablers.NeighborhoodSize = int(x[1])
		cfg.Enablers.LinkDelayScale = x[2]

		sub, err := cache.Get(cfg)
		if err != nil {
			return rmscale.Observation{}, err
		}
		fresh, err := rmscale.ModelByName(model.Name())
		if err != nil {
			return rmscale.Observation{}, err
		}
		eng, err := rmscale.NewEngineWith(cfg, fresh, sub)
		if err != nil {
			return rmscale.Observation{}, err
		}
		s := eng.Run()
		return rmscale.Observation{
			F: s.F, G: s.G, H: s.H,
			Efficiency:   s.Efficiency,
			Throughput:   s.Throughput,
			MeanResponse: s.MeanResponse,
			SuccessRate:  s.SuccessRate,
		}, nil
	})

	spec := rmscale.MeasureSpec{
		RMS: model.Name(),
		Ks:  []int{1, 2, 3, 4},
		Enablers: []rmscale.Enabler{
			{Name: "update-interval", Min: 5, Max: 600, Init: 40},
			{Name: "neighborhood-size", Min: 3, Max: 17, Integer: true, Init: 6},
			{Name: "link-delay-scale", Min: 0.25, Max: 4, Init: 1},
		},
		Band:      rmscale.PaperBand(),
		WarmStart: true,
	}
	spec.Anneal.Iters = 12
	spec.Anneal.Seed = 7

	fmt.Printf("measuring %s, holding E in [%.2f, %.2f]...\n\n",
		model.Name(), spec.Band.Lo, spec.Band.Hi)
	m, err := rmscale.Measure(ev, spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("k   G(k)      g(k)   efficiency  tuned update-interval")
	gs := m.NormalizedG()
	for i, p := range m.Points {
		fmt.Printf("%-3d %-9.1f %-6.2f %-11.3f %.1f\n",
			p.K, p.G, gs[i], p.Obs.Efficiency, p.Enablers[0])
	}
	fmt.Printf("\nslopes of G(k): %.3v\n", m.Slopes())

	for i, slope := range m.NormalizedSlopes() {
		fmt.Printf("k=%d..%d: slope of g(k) %.3f, scalable (g grows no faster than f): %v\n",
			m.Points[i].K, m.Points[i+1].K, slope, m.ScalableAt(i))
	}
	if at, err := rmscale.ConditionReport(m); err == nil {
		if at < 0 {
			fmt.Println("isoefficiency condition f(k) > c*g(k): holds at every measured scale")
		} else {
			fmt.Printf("isoefficiency condition first fails at k=%d\n", at)
		}
	}

	// Equation 1: holding E at the base efficiency needs useful work
	// f(k) = c*g(k) + c'*h(k). E(k) recomputed from the normalized
	// curves must equal the measured E(k). J&W value a response at
	// half once it takes twice the mean runtime, and read psi >= 0.8
	// as scalable.
	base := m.Points[0].Obs
	iso, err := rmscale.NewIsoAnalysis(base, base.Efficiency)
	if err != nil {
		log.Fatal(err)
	}
	fs, hs := m.NormalizedF(), m.NormalizedH()
	jw, err := rmscale.JogalekarWoodside(m, rmscale.JWParams{TargetResponse: 2 * meanRuntime})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nk   h(k)   f(k)   f(k) by Eq.1  E(k) from f,g,h  measured E(k)  J&W psi(k)")
	for i, p := range m.Points {
		fmt.Printf("%-3d %-6.2f %-6.2f %-13.2f %-16.3f %-14.3f %.3f (scalable: %v)\n",
			p.K, hs[i], fs[i], iso.RequiredWork(gs[i], hs[i]), iso.Efficiency(fs[i], gs[i], hs[i]),
			p.Obs.Efficiency, jw.Psi[i], jw.Scalable(i, 0.8))
	}
}
