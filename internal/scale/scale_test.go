package scale

import (
	"math"
	"testing"

	"rmscale/internal/anneal"
)

func TestEnablerValidate(t *testing.T) {
	bad := []Enabler{
		{Name: "a", Min: 5, Max: 1, Init: 3},
		{Name: "b", Min: 0, Max: 10, Init: 11},
		{Name: "c", Min: 0, Max: 10, Init: -1},
	}
	for _, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("enabler %+v accepted", e)
		}
	}
	ok := Enabler{Name: "tau", Min: 1, Max: 100, Init: 40}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBand(t *testing.T) {
	b := PaperBand()
	if b.Lo != 0.38 || b.Hi != 0.42 {
		t.Fatalf("paper band wrong: %+v", b)
	}
	if !b.Contains(0.40) || b.Contains(0.37) || b.Contains(0.43) {
		t.Fatal("Contains wrong")
	}
	if !b.Feasible(0.43) || b.Feasible(0.37) {
		t.Fatal("Feasible must bind only below the floor")
	}
	if b.Penalty(0.40) != 0 {
		t.Fatal("no penalty expected inside band")
	}
	if p := b.Penalty(0.33); math.Abs(p-0.05) > 1e-12 {
		t.Fatalf("penalty = %v, want 0.05", p)
	}
	if err := (Band{Lo: 0, Hi: 0.5}).Validate(); err == nil {
		t.Error("zero floor accepted")
	}
	if err := (Band{Lo: 0.5, Hi: 0.4}).Validate(); err == nil {
		t.Error("inverted band accepted")
	}
	if err := (Band{Lo: 0.5, Hi: 1.0}).Validate(); err == nil {
		t.Error("band reaching 1 accepted")
	}
}

func TestIsoAnalysisConstants(t *testing.T) {
	base := Observation{F: 100, G: 30, H: 20, Efficiency: 100.0 / 150}
	a, err := NewIsoAnalysis(base, 0.4) // alpha = 2.5
	if err != nil {
		t.Fatal(err)
	}
	// c = O_RMS/((alpha-1)W) = 30/(1.5*100) = 0.2
	if math.Abs(a.C-0.2) > 1e-12 {
		t.Fatalf("c = %v, want 0.2", a.C)
	}
	// c' = 20/150
	if math.Abs(a.CPrime-20.0/150) > 1e-12 {
		t.Fatalf("c' = %v", a.CPrime)
	}
	// Equation 1 consistency: f = c*g + c'*h at the base (f=g=h=1)
	// means (alpha-1)W = O_RMS + O_RP, which holds only when the base
	// efficiency is exactly 1/alpha; here it is not, so just check the
	// formula is linear as written.
	if got := a.RequiredWork(2, 1); math.Abs(got-(0.4+20.0/150)) > 1e-12 {
		t.Fatalf("RequiredWork = %v", got)
	}
}

func TestIsoAnalysisExactBase(t *testing.T) {
	// When E0 equals the base efficiency, Equation 1 must hold exactly
	// at the base point: f(1)=g(1)=h(1)=1 and 1 = c + c'.
	base := Observation{F: 100, G: 100, H: 50}
	base.Efficiency = base.F / (base.F + base.G + base.H) // 0.4
	a, err := NewIsoAnalysis(base, base.Efficiency)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.C+a.CPrime-1) > 1e-9 {
		t.Fatalf("c + c' = %v, want 1 at exact base", a.C+a.CPrime)
	}
	if e := a.Efficiency(1, 1, 1); math.Abs(e-0.4) > 1e-12 {
		t.Fatalf("Efficiency(1,1,1) = %v, want 0.4", e)
	}
}

func TestIsoCondition(t *testing.T) {
	base := Observation{F: 100, G: 100, H: 50, Efficiency: 0.4}
	a, err := NewIsoAnalysis(base, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Condition(2.0, 1.5) { // work grew faster than overhead
		t.Error("condition should hold when f outgrows c*g")
	}
	if a.Condition(1.0, 3.0) { // overhead exploded
		t.Error("condition should fail when overhead outgrows work")
	}
}

func TestIsoAnalysisErrors(t *testing.T) {
	if _, err := NewIsoAnalysis(Observation{F: 100}, 0); err == nil {
		t.Error("e0=0 accepted")
	}
	if _, err := NewIsoAnalysis(Observation{F: 100}, 1); err == nil {
		t.Error("e0=1 accepted")
	}
	if _, err := NewIsoAnalysis(Observation{F: 0}, 0.4); err == nil {
		t.Error("zero base work accepted")
	}
}

func TestMeasurementDerivedCurves(t *testing.T) {
	m := &Measurement{
		RMS: "TEST",
		Points: []Point{
			{K: 1, G: 100, Obs: Observation{F: 1000, H: 10, Throughput: 5, MeanResponse: 50}},
			{K: 2, G: 300, Obs: Observation{F: 2000, H: 20, Throughput: 9, MeanResponse: 60}},
			{K: 4, G: 500, Obs: Observation{F: 4000, H: 40, Throughput: 16, MeanResponse: 80}},
		},
	}
	ks := m.Ks()
	if ks[2] != 4 {
		t.Fatalf("Ks = %v", ks)
	}
	g := m.NormalizedG()
	if g[0] != 1 || g[1] != 3 || g[2] != 5 {
		t.Fatalf("normalized G = %v", g)
	}
	f := m.NormalizedF()
	if f[2] != 4 {
		t.Fatalf("normalized F = %v", f)
	}
	slopes := m.Slopes()
	if slopes[0] != 200 || slopes[1] != 100 {
		t.Fatalf("raw slopes = %v", slopes)
	}
	nslopes := m.NormalizedSlopes()
	if nslopes[0] != 2 || nslopes[1] != 1 {
		t.Fatalf("normalized slopes = %v", nslopes)
	}
	// Segment 0: g grows 2x/k, f grows 1x/k: overhead outgrows work.
	if m.ScalableAt(0) {
		t.Error("segment 0 should be unscalable")
	}
	// Segment 1: g slope 1, f slope 1: marginally scalable.
	if !m.ScalableAt(1) {
		t.Error("segment 1 should be scalable")
	}
	if m.ScalableAt(5) || m.ScalableAt(-1) {
		t.Error("out-of-range segment must report false")
	}
	s := m.Series()
	if s.Name != "TEST" || len(s.Y) != 3 {
		t.Fatalf("Series = %+v", s)
	}
	if th := m.Throughputs(); th[1] != 9 {
		t.Fatalf("Throughputs = %v", th)
	}
	if rt := m.ResponseTimes(); rt[2] != 80 {
		t.Fatalf("ResponseTimes = %v", rt)
	}
}

func TestConditionReport(t *testing.T) {
	mk := func(g2, g3 float64) *Measurement {
		return &Measurement{
			Points: []Point{
				{K: 1, G: 100, Obs: Observation{F: 1000, G: 100, H: 50, Efficiency: 1000.0 / 1150}},
				{K: 2, G: g2, Obs: Observation{F: 2000}},
				{K: 3, G: g3, Obs: Observation{F: 3000}},
			},
		}
	}
	// Overhead linear with work: condition holds everywhere.
	m := mk(200, 300)
	at, err := ConditionReport(m)
	if err != nil {
		t.Fatal(err)
	}
	if at != -1 {
		t.Fatalf("condition should hold, failed at %d", at)
	}
	// Overhead exploding at k=3.
	m = mk(200, 100000)
	at, err = ConditionReport(m)
	if err != nil {
		t.Fatal(err)
	}
	if at != 3 {
		t.Fatalf("condition should fail at 3, got %d", at)
	}
	if _, err := ConditionReport(&Measurement{}); err == nil {
		t.Error("empty measurement accepted")
	}
}

// fakeEvaluator implements a closed-form system whose minimal overhead
// is known: G = tau_cost(x) and efficiency rises with spend.
type fakeEvaluator struct{ evals int }

func (f *fakeEvaluator) Evaluate(k int, x []float64) (Observation, error) {
	f.evals++
	// x[0] in [1,100] is an "update interval": overhead falls with x,
	// efficiency falls with x. Efficiency crosses 0.38 at x = 60.
	spend := 100.0 / x[0] * float64(k)
	eff := 0.44 - 0.001*x[0]
	return Observation{
		F:          1000 * float64(k),
		G:          spend,
		H:          10,
		Efficiency: eff,
	}, nil
}

func TestMeasureFindsConstrainedMinimum(t *testing.T) {
	spec := MeasureSpec{
		RMS:      "FAKE",
		Ks:       []int{1, 2, 3},
		Enablers: []Enabler{{Name: "tau", Min: 1, Max: 100, Init: 10}},
		Band:     PaperBand(),
		Anneal:   anneal.Options{Iters: 80, Restarts: 2, Seed: 11},
	}
	m, err := Measure(&fakeEvaluator{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Points) != 3 {
		t.Fatalf("points = %d", len(m.Points))
	}
	for _, p := range m.Points {
		if !p.Feasible {
			t.Fatalf("k=%d infeasible", p.K)
		}
		// The constrained optimum sits near tau=60 (eff=0.38), where
		// G = 100/60*k ~ 1.67k.
		if p.Enablers[0] < 45 || p.Enablers[0] > 61 {
			t.Fatalf("k=%d tuned tau=%v, want near 60", p.K, p.Enablers[0])
		}
		if p.Obs.Efficiency < 0.38 {
			t.Fatalf("k=%d efficiency %v below band", p.K, p.Obs.Efficiency)
		}
	}
	// Normalized curve should be ~linear in k.
	g := m.NormalizedG()
	if math.Abs(g[1]-2) > 0.35 || math.Abs(g[2]-3) > 0.55 {
		t.Fatalf("normalized G = %v, want ~[1,2,3]", g)
	}
}

func TestMeasureWarmStart(t *testing.T) {
	spec := MeasureSpec{
		RMS:       "FAKE",
		Ks:        []int{1, 2},
		Enablers:  []Enabler{{Name: "tau", Min: 1, Max: 100, Init: 10}},
		Band:      PaperBand(),
		Anneal:    anneal.Options{Iters: 40, Restarts: 1, Seed: 5},
		WarmStart: true,
	}
	if _, err := Measure(&fakeEvaluator{}, spec); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureProgressCallback(t *testing.T) {
	var seen []int
	spec := MeasureSpec{
		RMS:      "FAKE",
		Ks:       []int{1, 3},
		Enablers: []Enabler{{Name: "tau", Min: 1, Max: 100, Init: 10}},
		Band:     PaperBand(),
		Anneal:   anneal.Options{Iters: 20, Restarts: 1, Seed: 5},
		Progress: nil,
	}
	spec.Progress = func(p Point) { seen = append(seen, p.K) }
	if _, err := Measure(&fakeEvaluator{}, spec); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 3 {
		t.Fatalf("progress saw %v", seen)
	}
}

func TestMeasureSpecValidation(t *testing.T) {
	good := MeasureSpec{
		Ks:       []int{1, 2},
		Enablers: []Enabler{{Name: "x", Min: 0, Max: 1, Init: 0.5}},
		Band:     PaperBand(),
	}
	bad := []func(*MeasureSpec){
		func(s *MeasureSpec) { s.Ks = nil },
		func(s *MeasureSpec) { s.Ks = []int{0, 1} },
		func(s *MeasureSpec) { s.Ks = []int{2, 2} },
		func(s *MeasureSpec) { s.Ks = []int{3, 1} },
		func(s *MeasureSpec) { s.Enablers = nil },
		func(s *MeasureSpec) { s.Enablers[0].Init = 9 },
		func(s *MeasureSpec) { s.Band = Band{} },
	}
	for i, mut := range bad {
		s := good
		s.Enablers = append([]Enabler(nil), good.Enablers...)
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(nil, good); err == nil {
		t.Error("nil evaluator accepted")
	}
}

func TestEvaluatorFunc(t *testing.T) {
	f := EvaluatorFunc(func(k int, x []float64) (Observation, error) {
		return Observation{F: float64(k)}, nil
	})
	obs, err := f.Evaluate(3, nil)
	if err != nil || obs.F != 3 {
		t.Fatalf("EvaluatorFunc broken: %v %v", obs, err)
	}
}

// TestMeasureResumeAdoptsPrefix checks checkpoint adoption: a
// measurement resumed with the first points of a prior run re-tunes
// only the remaining scale factors and reproduces the full run
// exactly.
func TestMeasureResumeAdoptsPrefix(t *testing.T) {
	spec := MeasureSpec{
		RMS:       "FAKE",
		Ks:        []int{1, 2, 3},
		Enablers:  []Enabler{{Name: "tau", Min: 1, Max: 100, Init: 10}},
		Band:      PaperBand(),
		Anneal:    anneal.Options{Iters: 30, Restarts: 1, Seed: 11},
		WarmStart: true,
	}
	full, err := Measure(&fakeEvaluator{}, spec)
	if err != nil {
		t.Fatal(err)
	}

	calls := 0
	counting := EvaluatorFunc(func(k int, x []float64) (Observation, error) {
		if k < 3 {
			t.Fatalf("resumed measurement re-evaluated k=%d", k)
		}
		calls++
		return (&fakeEvaluator{}).Evaluate(k, x)
	})
	spec.Resume = full.Points[:2]
	var progressed []int
	spec.Progress = func(p Point) { progressed = append(progressed, p.K) }
	resumed, err := Measure(counting, spec)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("resumed measurement evaluated nothing")
	}
	if len(resumed.Points) != 3 {
		t.Fatalf("resumed points = %d", len(resumed.Points))
	}
	for i := range resumed.Points {
		if resumed.Points[i].G != full.Points[i].G ||
			resumed.Points[i].Enablers[0] != full.Points[i].Enablers[0] {
			t.Fatalf("point %d diverged: %+v vs %+v", i, resumed.Points[i], full.Points[i])
		}
	}
	if len(progressed) != 3 || progressed[0] != 1 || progressed[2] != 3 {
		t.Fatalf("progress skipped adopted points: %v", progressed)
	}
}

func TestMeasureResumeValidation(t *testing.T) {
	spec := MeasureSpec{
		RMS:      "FAKE",
		Ks:       []int{1, 2},
		Enablers: []Enabler{{Name: "tau", Min: 1, Max: 100, Init: 10}},
		Band:     PaperBand(),
		Anneal:   anneal.Options{Iters: 10, Restarts: 1, Seed: 1},
	}
	spec.Resume = []Point{{K: 2}}
	if _, err := Measure(&fakeEvaluator{}, spec); err == nil {
		t.Fatal("misaligned resume points accepted")
	}
	spec.Resume = []Point{{K: 1}, {K: 2}, {K: 3}}
	if _, err := Measure(&fakeEvaluator{}, spec); err == nil {
		t.Fatal("too many resume points accepted")
	}
}
