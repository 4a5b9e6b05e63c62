package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewSource(42).Stream("jobs")
	b := NewSource(42).Stream("jobs")
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed+name diverged at draw %d", i)
		}
	}
}

func TestStreamIndependenceByName(t *testing.T) {
	src := NewSource(42)
	a := src.Stream("jobs")
	c := src.Stream("net")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Float64() == c.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names look identical (%d/1000 equal draws)", same)
	}
}

func TestStreamIndependenceBySeed(t *testing.T) {
	a := NewSource(1).Stream("jobs")
	b := NewSource(2).Stream("jobs")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds look identical (%d/1000)", same)
	}
}

func TestUniformRange(t *testing.T) {
	st := NewSource(7).Stream("u")
	for i := 0; i < 10000; i++ {
		v := st.Uniform(3, 9)
		if v < 3 || v >= 9 {
			t.Fatalf("Uniform(3,9) = %v out of range", v)
		}
	}
}

func TestIntRangeInclusive(t *testing.T) {
	st := NewSource(7).Stream("i")
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := st.IntRange(2, 5)
		if v < 2 || v > 5 {
			t.Fatalf("IntRange(2,5) = %d out of range", v)
		}
		seen[v] = true
	}
	for v := 2; v <= 5; v++ {
		if !seen[v] {
			t.Fatalf("IntRange never produced %d", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	st := NewSource(11).Stream("e")
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += st.Exp(50)
	}
	mean := sum / n
	if math.Abs(mean-50) > 1 {
		t.Fatalf("Exp(50) sample mean = %v, want ~50", mean)
	}
}

func TestExpDisabled(t *testing.T) {
	st := NewSource(11).Stream("e")
	if st.Exp(0) != 0 || st.Exp(-3) != 0 {
		t.Fatal("Exp with non-positive mean should return 0")
	}
}

func TestLogUniformBoundsAndMean(t *testing.T) {
	st := NewSource(13).Stream("lu")
	const lo, hi = 10.0, 3000.0
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := st.LogUniform(lo, hi)
		if v < lo || v > hi {
			t.Fatalf("LogUniform out of bounds: %v", v)
		}
		sum += v
	}
	want := (hi - lo) / math.Log(hi/lo) // analytic mean of log-uniform
	mean := sum / n
	if math.Abs(mean-want)/want > 0.03 {
		t.Fatalf("LogUniform mean = %v, want ~%v", mean, want)
	}
}

func TestLogUniformPanicsOnBadRange(t *testing.T) {
	st := NewSource(1).Stream("x")
	for _, c := range []struct{ lo, hi float64 }{{0, 5}, {-1, 5}, {10, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("LogUniform(%v,%v) did not panic", c.lo, c.hi)
				}
			}()
			st.LogUniform(c.lo, c.hi)
		}()
	}
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	st := NewSource(17).Stream("w")
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += st.Weibull(1, 20)
	}
	mean := sum / n
	if math.Abs(mean-20) > 0.5 {
		t.Fatalf("Weibull(1,20) mean = %v, want ~20 (exponential)", mean)
	}
}

func TestWeibullPanicsOnBadParams(t *testing.T) {
	st := NewSource(1).Stream("w")
	defer func() {
		if recover() == nil {
			t.Fatal("Weibull(0, 1) did not panic")
		}
	}()
	st.Weibull(0, 1)
}

func TestSampleDistinct(t *testing.T) {
	st := NewSource(19).Stream("s")
	for trial := 0; trial < 100; trial++ {
		got := st.Sample(20, 5)
		if len(got) != 5 {
			t.Fatalf("Sample(20,5) returned %d values", len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= 20 {
				t.Fatalf("Sample value %d out of range", v)
			}
			if seen[v] {
				t.Fatalf("Sample returned duplicate %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleAllWhenKTooLarge(t *testing.T) {
	st := NewSource(19).Stream("s")
	got := st.Sample(4, 10)
	if len(got) != 4 {
		t.Fatalf("Sample(4,10) returned %d values, want 4", len(got))
	}
}

func TestBoolProbability(t *testing.T) {
	st := NewSource(23).Stream("b")
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if st.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate = %v", p)
	}
}

// Property: LogUniform stays within bounds for arbitrary valid ranges.
func TestLogUniformBoundsProperty(t *testing.T) {
	st := NewSource(29).Stream("p")
	f := func(a, b uint16) bool {
		lo := float64(a%500) + 1
		hi := lo + float64(b%5000) + 1
		v := st.LogUniform(lo, hi)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	k := NewKernel()
	var fires []Time
	NewTicker(k, 10, func() { fires = append(fires, k.Now()) })
	k.Run(55)
	want := []Time{10, 20, 30, 40, 50}
	if len(fires) != len(want) {
		t.Fatalf("ticker fired %d times (%v), want %d", len(fires), fires, len(want))
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, fires[i], want[i])
		}
	}
}

func TestTickerDisabledOnNonPositivePeriod(t *testing.T) {
	k := NewKernel()
	NewTicker(k, 0, func() { t.Fatal("disabled ticker fired") })
	if n := k.Pending(); n != 0 {
		t.Fatalf("zero-period ticker left %d pending events", n)
	}
	k.Run(100)
}
