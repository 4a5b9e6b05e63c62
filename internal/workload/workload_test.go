package workload

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"rmscale/internal/sim"
)

func stream(name string) *sim.Stream { return sim.NewSource(2025).Stream(name) }

func genDefault(t *testing.T) []*Job {
	t.Helper()
	p := DefaultParams()
	p.ArrivalRate = 2
	p.Clusters = 4
	jobs, err := Generate(p, stream("jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		t.Fatal("no jobs generated")
	}
	return jobs
}

func TestGenerateCountMatchesRate(t *testing.T) {
	p := DefaultParams()
	p.ArrivalRate = 2
	p.Horizon = 10000
	jobs, err := Generate(p, stream("count"))
	if err != nil {
		t.Fatal(err)
	}
	want := p.ArrivalRate * p.Horizon
	got := float64(len(jobs))
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("generated %v jobs, want ~%v", got, want)
	}
}

func TestGenerateInvariants(t *testing.T) {
	jobs := genDefault(t)
	p := DefaultParams()
	last := sim.Time(-1)
	for _, j := range jobs {
		if j.Arrival < last {
			t.Fatal("arrivals out of order")
		}
		last = j.Arrival
		if j.Runtime < p.RuntimeMin || j.Runtime > p.RuntimeMax {
			t.Fatalf("runtime %v out of range", j.Runtime)
		}
		if j.Requested < j.Runtime || j.Requested > p.OverestimateMax*j.Runtime {
			t.Fatalf("requested %v vs runtime %v", j.Requested, j.Runtime)
		}
		if j.Benefit < 2 || j.Benefit > 5 {
			t.Fatalf("benefit %v outside [2,5]", j.Benefit)
		}
		if j.Partition != 1 {
			t.Fatalf("partition %d, want 1", j.Partition)
		}
		if (j.Runtime <= p.TCPU) != (j.Class == Local) {
			t.Fatalf("class %v inconsistent with runtime %v", j.Class, j.Runtime)
		}
		if j.Cluster < 0 || j.Cluster >= 4 {
			t.Fatalf("cluster %d out of range", j.Cluster)
		}
	}
}

func TestDeadline(t *testing.T) {
	j := &Job{Arrival: 100, Runtime: 50, Benefit: 3}
	if j.Deadline() != 250 {
		t.Fatalf("Deadline = %v, want 250", j.Deadline())
	}
}

func TestClassString(t *testing.T) {
	if Local.String() != "LOCAL" || Remote.String() != "REMOTE" {
		t.Fatal("class strings wrong")
	}
}

func TestClassMixMatchesTCPU(t *testing.T) {
	p := DefaultParams()
	p.ArrivalRate = 5
	p.Horizon = 20000
	jobs, err := Generate(p, stream("mix"))
	if err != nil {
		t.Fatal(err)
	}
	local := 0
	for _, j := range jobs {
		if j.Class == Local {
			local++
		}
	}
	frac := float64(local) / float64(len(jobs))
	// Log-uniform on [10,3000] with threshold 700:
	// P(LOCAL) = ln(700/10)/ln(3000/10) ≈ 0.745.
	want := math.Log(700.0/10) / math.Log(3000.0/10)
	if math.Abs(frac-want) > 0.02 {
		t.Fatalf("LOCAL fraction = %v, want ~%v", frac, want)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultParams()
	a, err := Generate(p, stream("det"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, stream("det"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("job %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestWeibullArrivalsKeepMeanRate(t *testing.T) {
	p := DefaultParams()
	p.ArrivalRate = 2
	p.Horizon = 20000
	p.WeibullShape = 0.7
	jobs, err := Generate(p, stream("weib"))
	if err != nil {
		t.Fatal(err)
	}
	want := p.ArrivalRate * p.Horizon
	got := float64(len(jobs))
	if math.Abs(got-want)/want > 0.08 {
		t.Fatalf("Weibull arrivals: %v jobs, want ~%v", got, want)
	}
}

func TestValidateRejects(t *testing.T) {
	base := DefaultParams()
	mutations := []func(*Params){
		func(p *Params) { p.ArrivalRate = 0 },
		func(p *Params) { p.Horizon = 0 },
		func(p *Params) { p.RuntimeMin = 0 },
		func(p *Params) { p.RuntimeMax = p.RuntimeMin - 1 },
		func(p *Params) { p.TCPU = 0 },
		func(p *Params) { p.BenefitMin = 0.5 },
		func(p *Params) { p.BenefitMax = 1 },
		func(p *Params) { p.OverestimateMax = 0.9 },
		func(p *Params) { p.Clusters = 0 },
		func(p *Params) { p.WeibullShape = 2 },
		func(p *Params) { p.CancelProb = 0.1 },
	}
	for i, mut := range mutations {
		p := base
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, p)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("default params rejected: %v", err)
	}
}

func TestGammaApprox(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 1}, {2, 1}, {3, 2}, {4, 6}, {5, 24},
		{1.5, math.Sqrt(math.Pi) / 2},
		{2.428571, 1.26583}, // Gamma(1 + 1/0.7), used by the Weibull mean fix
	}
	for _, c := range cases {
		if got := gammaApprox(c.x); math.Abs(got-c.want)/c.want > 1e-4 {
			t.Errorf("Gamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

// Property: arbitrary valid rates and horizons always give sorted,
// classified, in-range jobs.
func TestGenerateInvariantProperty(t *testing.T) {
	src := sim.NewSource(31)
	f := func(rate, horizon uint8) bool {
		p := DefaultParams()
		p.ArrivalRate = 0.2 + float64(rate%40)/10
		p.Horizon = 200 + sim.Time(horizon)*10
		p.Clusters = 3
		jobs, err := Generate(p, src.Stream("prop"))
		if err != nil {
			return false
		}
		tr := Trace{Params: p, Jobs: jobs}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDiurnalArrivalsKeepMeanRate(t *testing.T) {
	p := DefaultParams()
	p.ArrivalRate = 2
	p.Horizon = 40000
	p.DiurnalAmplitude = 0.8
	p.DiurnalPeriod = 2000
	jobs, err := Generate(p, stream("diurnal"))
	if err != nil {
		t.Fatal(err)
	}
	want := p.ArrivalRate * p.Horizon
	got := float64(len(jobs))
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("diurnal arrivals: %v jobs, want ~%v", got, want)
	}
}

func TestDiurnalArrivalsActuallyCycle(t *testing.T) {
	p := DefaultParams()
	p.ArrivalRate = 4
	p.Horizon = 8000
	p.DiurnalAmplitude = 0.9
	p.DiurnalPeriod = 8000 // one full cycle: first half peak, second trough
	jobs, err := Generate(p, stream("cycle"))
	if err != nil {
		t.Fatal(err)
	}
	first, second := 0, 0
	for _, j := range jobs {
		if j.Arrival < 4000 {
			first++
		} else {
			second++
		}
	}
	if float64(first) < 1.5*float64(second) {
		t.Fatalf("no visible cycle: first half %d, second half %d", first, second)
	}
}

func TestDiurnalValidation(t *testing.T) {
	p := DefaultParams()
	p.DiurnalAmplitude = 1.0
	if err := p.Validate(); err == nil {
		t.Error("amplitude 1.0 accepted")
	}
	p = DefaultParams()
	p.DiurnalAmplitude = -0.1
	if err := p.Validate(); err == nil {
		t.Error("negative amplitude accepted")
	}
	p = DefaultParams()
	p.DiurnalPeriod = -5
	if err := p.Validate(); err == nil {
		t.Error("negative period accepted")
	}
}
