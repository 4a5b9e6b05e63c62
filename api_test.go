package rmscale_test

import (
	"bytes"
	"strings"
	"testing"

	"rmscale"
)

func TestModelsRoster(t *testing.T) {
	names := rmscale.ModelNames()
	want := []string{"CENTRAL", "LOWEST", "RESERVE", "AUCTION", "S-I", "R-I", "Sy-I"}
	if len(names) != len(want) {
		t.Fatalf("models = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("model %d = %q, want %q", i, names[i], want[i])
		}
	}
	for _, n := range want {
		p, err := rmscale.ModelByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != n {
			t.Fatalf("ModelByName(%q).Name() = %q", n, p.Name())
		}
	}
	if _, err := rmscale.ModelByName("NOPE"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestModelConstructors: Models builds one instance of every paper
// model, in roster order; NewCentral and NewLowest build the two the
// examples start from.
func TestModelConstructors(t *testing.T) {
	cases := map[string]rmscale.Policy{}
	for i, p := range rmscale.Models() {
		if want := rmscale.ModelNames()[i]; p.Name() != want {
			t.Errorf("model %d is %q, want %q", i, p.Name(), want)
		}
		cases[p.Name()] = p
	}
	if rmscale.NewCentral().Name() != "CENTRAL" || rmscale.NewLowest().Name() != "LOWEST" {
		t.Error("constructor returned the wrong model")
	}
	if !rmscale.NewCentral().Central() || !cases["CENTRAL"].Central() {
		t.Error("CENTRAL must report Central()")
	}
	if rmscale.NewLowest().Central() {
		t.Error("LOWEST must not report Central()")
	}
	for _, n := range []string{"S-I", "R-I", "Sy-I"} {
		if !cases[n].UsesMiddleware() {
			t.Errorf("%s must use the grid middleware", n)
		}
	}
}

func TestEngineEndToEnd(t *testing.T) {
	cfg := rmscale.DefaultConfig()
	cfg.Horizon = 1500
	cfg.Workload.Horizon = 1500
	cfg.Drain = 2000
	eng, err := rmscale.NewEngine(cfg, rmscale.NewLowest())
	if err != nil {
		t.Fatal(err)
	}
	sum := eng.Run()
	if sum.Jobs == 0 || sum.F <= 0 || sum.G <= 0 {
		t.Fatalf("empty run: %+v", sum)
	}
	if sum.Efficiency <= 0 || sum.Efficiency >= 1 {
		t.Fatalf("efficiency %v", sum.Efficiency)
	}
}

func TestPaperBand(t *testing.T) {
	b := rmscale.PaperBand()
	if b.Lo != 0.38 || b.Hi != 0.42 {
		t.Fatalf("band = %+v", b)
	}
}

func TestMeasureViaFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement is slow")
	}
	cache := rmscale.NewSubstrateCache()
	ev := rmscale.EvaluatorFunc(func(k int, x []float64) (rmscale.Observation, error) {
		cfg := rmscale.DefaultConfig()
		cfg.Spec.Clusters = 4 * k
		cfg.Spec.ClusterSize = 5
		cfg.Workload.Clusters = cfg.Spec.Clusters
		cfg.Workload.ArrivalRate = 0.9 * float64(20*k) / 524.2
		cfg.Workload.Horizon = 1000
		cfg.Horizon = 1000
		cfg.Drain = 1500
		cfg.Enablers.UpdateInterval = x[0]
		sub, err := cache.Get(cfg)
		if err != nil {
			return rmscale.Observation{}, err
		}
		eng, err := rmscale.NewEngineWith(cfg, rmscale.NewLowest(), sub)
		if err != nil {
			return rmscale.Observation{}, err
		}
		s := eng.Run()
		return rmscale.Observation{
			F: s.F, G: s.G, H: s.H, Efficiency: s.Efficiency,
		}, nil
	})
	spec := rmscale.MeasureSpec{
		RMS:      "LOWEST",
		Ks:       []int{1, 2},
		Enablers: []rmscale.Enabler{{Name: "tau", Min: 5, Max: 400, Init: 40}},
		Band:     rmscale.PaperBand(),
	}
	spec.Anneal.Iters = 6
	m, err := rmscale.Measure(ev, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Points) != 2 {
		t.Fatalf("points = %d", len(m.Points))
	}
	if g := m.NormalizedG(); g[0] != 1 {
		t.Fatalf("normalized base %v", g[0])
	}
	iso, err := rmscale.NewIsoAnalysis(m.Points[0].Obs, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if iso.C <= 0 {
		t.Fatalf("iso constant c = %v", iso.C)
	}
	if _, err := rmscale.ConditionReport(m); err != nil {
		t.Fatal(err)
	}
}

func TestTablesViaFacade(t *testing.T) {
	var buf bytes.Buffer
	if err := rmscale.PaperConstantsTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "700") {
		t.Fatal("Table 1 missing T_CPU value")
	}
	buf.Reset()
	if err := rmscale.ScalingTables(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 5") {
		t.Fatal("scaling tables incomplete")
	}
}

func TestParseFidelityFacade(t *testing.T) {
	f, err := rmscale.ParseFidelity("quick")
	if err != nil || f != rmscale.Quick {
		t.Fatalf("ParseFidelity: %v %v", f, err)
	}
}

func TestCaseResultFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("case run is slow")
	}
	r, err := rmscale.RunCaseSpec(3, rmscale.RunSpec{Fidelity: rmscale.Smoke, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ss := range []*rmscale.SeriesSet{
		r.Figure(), r.ThroughputFigure(), r.ResponseFigure(),
	} {
		if len(ss.Series) != 7 {
			t.Fatalf("%q has %d series", ss.Title, len(ss.Series))
		}
		var buf bytes.Buffer
		if err := ss.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if len(buf.String()) == 0 {
			t.Fatal("empty CSV")
		}
	}
}

func TestHierarchyViaFacade(t *testing.T) {
	// Reachable by name (extension roster) but not in Models().
	p, err := rmscale.ModelByName("HIERARCHY")
	if err != nil || p.Name() != "HIERARCHY" || p.Central() {
		t.Fatalf("ModelByName(HIERARCHY): %v %v", p, err)
	}
	for _, m := range rmscale.Models() {
		if m.Name() == "HIERARCHY" {
			t.Fatal("HIERARCHY leaked into the paper roster")
		}
	}
}

func TestWorkloadFacade(t *testing.T) {
	p := rmscale.DefaultConfig().Workload
	p.Clusters = 1
	jobs, err := rmscale.GenerateWorkload(p, 3)
	if err != nil || len(jobs) == 0 {
		t.Fatalf("GenerateWorkload: %d jobs, %v", len(jobs), err)
	}
	var buf bytes.Buffer
	if err := rmscale.WriteSWF(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := rmscale.ReadSWF(&buf, rmscale.SWFOptions{Clusters: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("SWF round trip: %d vs %d", len(got), len(jobs))
	}
}

func TestJWViaFacade(t *testing.T) {
	m := &rmscale.Measurement{
		RMS: "X",
		Points: []rmscale.Point{
			{K: 1, Obs: rmscale.Observation{Throughput: 5, MeanResponse: 10}},
			{K: 2, Obs: rmscale.Observation{Throughput: 10, MeanResponse: 10}},
		},
	}
	r, err := rmscale.JogalekarWoodside(m, rmscale.JWParams{TargetResponse: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Psi) != 2 || r.Psi[0] != 1 {
		t.Fatalf("psi = %v", r.Psi)
	}
}

func TestPathSearchViaFacade(t *testing.T) {
	spec := rmscale.PathSpec{
		Vars: []rmscale.PathVar{{Name: "n", Min: 1, Max: 50, Integer: true, CostWeight: 1}},
		Ks:   []int{1, 2},
		Band: rmscale.PaperBand(),
		Demand: func(k int, obs rmscale.Observation) bool {
			return obs.Throughput >= float64(k)
		},
	}
	spec.Anneal.Iters = 60
	ev := rmscale.PathEvaluatorFunc(func(k int, vars []float64) (rmscale.Observation, error) {
		return rmscale.Observation{Throughput: vars[0], Efficiency: 0.40}, nil
	})
	p, err := rmscale.FindScalingPath(ev, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible() {
		t.Fatal("trivially feasible path not found")
	}
}

func TestChartViaFacade(t *testing.T) {
	ss := &rmscale.SeriesSet{Title: "t", XLabel: "k", YLabel: "y"}
	ss.Add(rmscale.Series{Name: "a", X: []float64{1, 2}, Y: []float64{1, 2}})
	var buf bytes.Buffer
	if err := ss.WriteChart(&buf, rmscale.ChartOptions{Width: 20, Height: 6}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "legend") {
		t.Fatal("chart missing legend")
	}
}
