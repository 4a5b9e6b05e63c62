package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("P50 = %v", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Errorf("P25 = %v", got)
	}
	if got := Percentile([]float64{9}, 75); got != 9 {
		t.Errorf("P75 single = %v", got)
	}
	if got := Percentile([]float64{4, 1, 3, 2}, 50); got != 2.5 {
		t.Errorf("P50 even = %v", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSlopes(t *testing.T) {
	got := Slopes([]float64{1, 2, 4}, []float64{10, 20, 10})
	want := []float64{10, -5}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Slopes = %v, want %v", got, want)
	}
	if Slopes([]float64{1}, []float64{1}) != nil {
		t.Error("single point should give nil slopes")
	}
	if got := Slopes([]float64{1, 1}, []float64{3, 9}); got[0] != 0 {
		t.Error("zero dx should give slope 0")
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{4, 8, 2})
	want := []float64{1, 2, 0.5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Normalize = %v, want %v", got, want)
		}
	}
	in := []float64{0, 5}
	got = Normalize(in)
	if got[0] != 0 || got[1] != 5 {
		t.Errorf("Normalize with zero base = %v, want copy", got)
	}
	got[1] = 99
	if in[1] != 5 {
		t.Error("Normalize must not alias its input")
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	if a.N() != len(xs) {
		t.Fatalf("N = %d", a.N())
	}
	// The batch values: sum 31, sum of squares 173.
	if !almost(a.Mean(), 31.0/8, 1e-12) {
		t.Errorf("Mean = %v, want %v", a.Mean(), 31.0/8)
	}
	if want := (173 - 31.0*31/8) / 7; !almost(a.Variance(), want, 1e-9) {
		t.Errorf("Variance = %v, want %v", a.Variance(), want)
	}
	if a.Min() != 1 || a.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", a.Min(), a.Max())
	}
	if a.Sum() != 31 {
		t.Errorf("Sum = %v", a.Sum())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.N() != 0 {
		t.Error("empty accumulator should be all zero")
	}
	if !math.IsInf(a.Min(), 1) || !math.IsInf(a.Max(), -1) {
		t.Error("empty accumulator Min/Max should be ±Inf")
	}
}

// Property: accumulator mean always lies within [min, max].
func TestAccumulatorMeanBoundsProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var a Accumulator
		for _, r := range raw {
			a.Add(float64(r))
		}
		return a.Mean() >= a.Min()-1e-9 && a.Mean() <= a.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Normalize(xs)[0] == 1 whenever xs[0] != 0.
func TestNormalizeFirstElementProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		if xs[0] == 0 {
			return true
		}
		return Normalize(xs)[0] == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
