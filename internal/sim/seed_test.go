package sim

import (
	"math"
	"math/rand"
	"testing"
)

// mathRandStream is a stream over math/rand's own source, seeded with
// sub: the reference every jump-ahead stream must reproduce.
func mathRandStream(sub int64) *Stream {
	return &Stream{rng: rand.New(rand.NewSource(sub))}
}

// streamDraws calls every Stream method once, each rendered as
// float64s so two streams' draws compare directly. Intn runs twice:
// below 2³¹ it takes math/rand's 32-bit path, above it the 63-bit one.
var streamDraws = []struct {
	name string
	draw func(st *Stream, out []float64) []float64
}{
	{"Float64", func(st *Stream, out []float64) []float64 { return append(out, st.Float64()) }},
	{"Uniform", func(st *Stream, out []float64) []float64 { return append(out, st.Uniform(-3, 7)) }},
	{"Intn", func(st *Stream, out []float64) []float64 { return append(out, float64(st.Intn(1000))) }},
	{"Intn63", func(st *Stream, out []float64) []float64 { return append(out, float64(st.Intn(1<<40+3))) }},
	{"IntRange", func(st *Stream, out []float64) []float64 { return append(out, float64(st.IntRange(-5, 5))) }},
	{"Exp", func(st *Stream, out []float64) []float64 { return append(out, st.Exp(50)) }},
	{"LogUniform", func(st *Stream, out []float64) []float64 { return append(out, st.LogUniform(1, 1000)) }},
	{"Normal", func(st *Stream, out []float64) []float64 { return append(out, st.Normal(0, 1)) }},
	{"Weibull", func(st *Stream, out []float64) []float64 { return append(out, st.Weibull(0.7, 10)) }},
	{"Bool", func(st *Stream, out []float64) []float64 {
		if st.Bool(0.3) {
			return append(out, 1)
		}
		return append(out, 0)
	}},
	{"Perm", func(st *Stream, out []float64) []float64 { return appendInts(out, st.Perm(9)) }},
	{"Sample", func(st *Stream, out []float64) []float64 { return appendInts(out, st.Sample(20, 5)) }},
	{"SampleInto", func(st *Stream, out []float64) []float64 {
		var dst [20]int
		return appendInts(out, st.SampleInto(dst[:], 20, 5))
	}},
}

func appendInts(out []float64, xs []int) []float64 {
	for _, x := range xs {
		out = append(out, float64(x))
	}
	return out
}

// matchMathRand calls method m calls times on a jump-ahead stream and
// on math/rand's, both seeded with sub, and fails on the first
// differing draw.
func matchMathRand(t *testing.T, sub int64, m int, calls int) {
	t.Helper()
	d := streamDraws[m]
	got, want := newStream("", sub), mathRandStream(sub)
	var g, w []float64
	for c := 0; c < calls; c++ {
		g, w = d.draw(got, g[:0]), d.draw(want, w[:0])
		for i := range w {
			if i >= len(g) || math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("sub-seed %d, %s call %d: jump-ahead drew %v, math/rand %v", sub, d.name, c, g, w)
			}
		}
	}
}

// edgeSeeds are the sub-seeds at the edges of math/rand's seed
// reduction: zero and its residue class (which math/rand replaces by
// a constant), ±1, the signed extremes and values next to multiples
// of 2³¹−1.
var edgeSeeds = []int64{
	0, 1, -1, 2, lehmerM - 1, lehmerM, lehmerM + 1, -lehmerM, 2 * lehmerM, -3 * lehmerM,
	1 << 31, 1<<62 - 1, lehmerM * (math.MaxInt64 / lehmerM), math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
}

// TestStreamMatchesMathRand pins that jump-ahead seeding rebuilds the
// state rand.NewSource builds: every Stream method draws the same
// values for two full turns of the 607-word state, on the edge seeds
// and on the sub-seeds of thousands of named streams.
func TestStreamMatchesMathRand(t *testing.T) {
	const calls = 2 * lfgLen
	for _, sub := range edgeSeeds {
		for m := range streamDraws {
			matchMathRand(t, sub, m, calls)
		}
	}
	seeds := 3000
	if testing.Short() {
		seeds = 300
	}
	names := []string{"jobs", "net", "faults", "topo", ""}
	for i := 0; i < seeds; i++ {
		sub := subSeed(int64(i)*7919-1000, names[i%len(names)])
		matchMathRand(t, sub, i%len(streamDraws), calls)
	}
}

// TestStreamSeedResidues checks the reduction mod 2³¹−1 directly:
// seeds in one residue class share a state, raw outputs included.
func TestStreamSeedResidues(t *testing.T) {
	for _, sub := range []int64{5, lehmerM + 5, -lehmerM + 5, 0, lehmerM, math.MinInt64} {
		var got lfgSource
		got.Seed(sub)
		want := rand.NewSource(sub).(rand.Source64)
		for i := 0; i < 2*lfgLen; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, output %d: %#x, math/rand %#x", sub, i, g, w)
			}
		}
	}
}

// FuzzStreamMatchesMathRand explores sub-seeds past the edge list:
// any int64 sub-seed and any Stream method must draw exactly what
// math/rand draws.
func FuzzStreamMatchesMathRand(f *testing.F) {
	for i, sub := range edgeSeeds {
		f.Add(sub, uint8(i))
	}
	f.Fuzz(func(t *testing.T, sub int64, method uint8) {
		matchMathRand(t, sub, int(method)%len(streamDraws), 2*lfgLen)
	})
}

// benchStream keeps BenchmarkStream's result live.
var benchStream *Stream

// BenchmarkStream times building one named stream: the sub-seed hash,
// the jump-ahead seeding and the stream's allocation. The math-rand
// case builds the same stream on rand.NewSource for reference.
func BenchmarkStream(b *testing.B) {
	src := NewSource(1)
	b.Run("jump-ahead", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchStream = src.Stream("jobs")
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchStream = mathRandStream(subSeed(1, "jobs"))
		}
	})
}
