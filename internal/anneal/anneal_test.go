package anneal

import (
	"math"
	"testing"
)

func sphere(x []float64) Result {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return Result{Cost: s, Feasible: true}
}

func TestMinimizeSphere(t *testing.T) {
	dims := []Dim{
		{Name: "x", Min: -10, Max: 10},
		{Name: "y", Min: -10, Max: 10},
	}
	out, err := Minimize(dims, nil, sphere, Options{Iters: 300, Restarts: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Cost > 0.5 {
		t.Fatalf("sphere minimum not found: x=%v cost=%v", out.X, out.Result.Cost)
	}
	if !out.Result.Feasible {
		t.Fatal("sphere result marked infeasible")
	}
}

func TestMinimizeRespectsBounds(t *testing.T) {
	dims := []Dim{{Name: "x", Min: 3, Max: 7}}
	// Minimum of (x-0)^2 over [3,7] is at the boundary x=3.
	out, err := Minimize(dims, nil, sphere, Options{Iters: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.X[0] < 3 || out.X[0] > 7 {
		t.Fatalf("out of bounds: %v", out.X)
	}
	if math.Abs(out.X[0]-3) > 0.2 {
		t.Fatalf("boundary minimum missed: %v", out.X)
	}
}

func TestMinimizeIntegerDims(t *testing.T) {
	dims := []Dim{{Name: "n", Min: 1, Max: 20, Integer: true}}
	obj := func(x []float64) Result {
		d := x[0] - 13
		return Result{Cost: d * d, Feasible: true}
	}
	out, err := Minimize(dims, nil, obj, Options{Iters: 200, Restarts: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.X[0] != math.Trunc(out.X[0]) {
		t.Fatalf("integer dimension returned non-integer %v", out.X[0])
	}
	if out.X[0] != 13 {
		t.Fatalf("integer optimum missed: %v", out.X[0])
	}
}

func TestMinimizePrefersFeasible(t *testing.T) {
	// Cheap region is infeasible; the feasible region costs more.
	dims := []Dim{{Name: "x", Min: 0, Max: 10}}
	obj := func(x []float64) Result {
		if x[0] < 5 {
			return Result{Cost: x[0], Penalty: 100 * (5 - x[0]), Feasible: false}
		}
		return Result{Cost: x[0], Feasible: true}
	}
	out, err := Minimize(dims, nil, obj, Options{Iters: 250, Restarts: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.Feasible {
		t.Fatalf("feasible optimum exists but search returned infeasible x=%v", out.X)
	}
	if math.Abs(out.X[0]-5) > 0.3 {
		t.Fatalf("constrained optimum should sit at the boundary 5, got %v", out.X[0])
	}
}

func TestMinimizeDeterministic(t *testing.T) {
	dims := []Dim{{Name: "x", Min: -5, Max: 5}, {Name: "y", Min: -5, Max: 5}}
	a, err := Minimize(dims, nil, sphere, Options{Iters: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Minimize(dims, nil, sphere, Options{Iters: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Cost != b.Result.Cost || a.X[0] != b.X[0] || a.X[1] != b.X[1] {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

func TestMinimizeUsesStartPoint(t *testing.T) {
	dims := []Dim{{Name: "x", Min: -100, Max: 100}}
	evals := 0
	obj := func(x []float64) Result {
		evals++
		d := x[0] - 42
		return Result{Cost: d * d, Feasible: true}
	}
	out, err := Minimize(dims, []float64{42}, obj, Options{Iters: 30, Restarts: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.X[0]-42) > 2 {
		t.Fatalf("drifted away from perfect start: %v", out.X[0])
	}
}

func TestMinimizeCache(t *testing.T) {
	dims := []Dim{{Name: "n", Min: 0, Max: 3, Integer: true}}
	evals := 0
	obj := func(x []float64) Result {
		evals++
		return Result{Cost: x[0], Feasible: true}
	}
	out, err := Minimize(dims, nil, obj, Options{Iters: 200, Restarts: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Only 4 distinct points exist; the cache must absorb the rest.
	if evals > 4 {
		t.Fatalf("cache ineffective: %d evaluations for 4 distinct points", evals)
	}
	if out.Evals != evals {
		t.Fatalf("Evals miscounted: %d vs %d", out.Evals, evals)
	}
	if out.CacheHit == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestMinimizeErrors(t *testing.T) {
	if _, err := Minimize(nil, nil, sphere, Options{}); err == nil {
		t.Error("no dimensions accepted")
	}
	if _, err := Minimize([]Dim{{Min: 2, Max: 1}}, nil, sphere, Options{}); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := Minimize([]Dim{{Min: 0, Max: 1}}, nil, nil, Options{}); err == nil {
		t.Error("nil objective accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	if o := (Options{}).withDefaults(); o.Iters != 60 || o.Restarts != 2 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	if o := (Options{Iters: 5, Restarts: 1}).withDefaults(); o.Iters != 5 || o.Restarts != 1 {
		t.Fatalf("set values overridden: %+v", o)
	}
}

func TestBetterOrdering(t *testing.T) {
	feasible := Result{Cost: 10, Feasible: true}
	cheapInfeasible := Result{Cost: 1, Feasible: false}
	if !better(feasible, cheapInfeasible) {
		t.Error("feasible must beat cheaper infeasible")
	}
	if better(cheapInfeasible, feasible) {
		t.Error("infeasible must not beat feasible")
	}
	a := Result{Cost: 1, Penalty: 5, Feasible: true}
	b := Result{Cost: 4, Penalty: 0, Feasible: true}
	if better(a, b) {
		t.Error("energy must include penalty")
	}
}

// sharedCache is a test EvalCache recording traffic.
type sharedCache struct {
	m    map[string]Result
	hits int
	puts int
}

func (c *sharedCache) Get(key string) (Result, bool) {
	r, ok := c.m[key]
	if ok {
		c.hits++
	}
	return r, ok
}

func (c *sharedCache) Put(key string, r Result) { c.m[key] = r; c.puts++ }

// TestEvalCacheHook checks that a caller-supplied cache replaces the
// private memo: a second search over a warm cache calls the objective
// zero times yet returns the first search's outcome, its counts
// included.
func TestEvalCacheHook(t *testing.T) {
	dims := []Dim{{Name: "x", Min: -4, Max: 4}}
	calls := 0
	obj := func(x []float64) Result {
		calls++
		v := (x[0] - 1) * (x[0] - 1)
		return Result{Cost: v, Feasible: true}
	}
	o := Options{Iters: 25, Restarts: 2, Seed: 11}

	cache := &sharedCache{m: make(map[string]Result)}
	o.Cache = cache
	first, err := Minimize(dims, nil, obj, o)
	if err != nil {
		t.Fatal(err)
	}
	if cache.puts == 0 {
		t.Fatal("cache saw no evaluations")
	}
	if first.Evals == 0 || first.Evals != calls {
		t.Fatalf("first search reported %d evaluations for %d objective calls", first.Evals, calls)
	}

	calls = 0
	second, err := Minimize(dims, nil, obj, o)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("warm search called the objective %d times", calls)
	}
	if cache.hits == 0 {
		t.Fatal("warm search read nothing from the cache")
	}
	if second.Evals != first.Evals || second.CacheHit != first.CacheHit {
		t.Fatalf("warm search counted evals=%d hits=%d, cold search %d and %d",
			second.Evals, second.CacheHit, first.Evals, first.CacheHit)
	}
	if second.X[0] != first.X[0] || second.Result != first.Result {
		t.Fatalf("warm search diverged: %v vs %v", second, first)
	}
}

func TestPointKeyQuantizes(t *testing.T) {
	a := PointKey([]float64{1.000001, 2})
	b := PointKey([]float64{1.0000012, 2})
	if a != b {
		t.Fatalf("keys differ below quantization: %q vs %q", a, b)
	}
	c := PointKey([]float64{1.1, 2})
	if a == c {
		t.Fatal("distinct points share a key")
	}
}
