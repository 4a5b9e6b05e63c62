// Package stats provides the small statistical toolkit the experiment
// harness needs: percentiles, per-segment slopes, normalized curves, and
// an online accumulator for streaming measurements.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It panics on an empty input or an
// out-of-range p, both of which indicate harness bugs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: Percentile p=%v out of [0,100]", p))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Slopes returns the per-segment slope between consecutive points of a
// curve: out[i] = (y[i+1]-y[i]) / (x[i+1]-x[i]). This is the paper's
// scalability measure, "the slope of G(k)". Segments with zero x step get
// slope 0.
func Slopes(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic("stats: Slopes length mismatch")
	}
	if len(x) < 2 {
		return nil
	}
	out := make([]float64, len(x)-1)
	for i := 0; i+1 < len(x); i++ {
		dx := x[i+1] - x[i]
		if dx != 0 {
			out[i] = (y[i+1] - y[i]) / dx
		}
	}
	return out
}

// Normalize divides every element by the first element, producing the
// paper's normalized curves f(k), g(k), h(k). A zero first element yields
// a copy of the input (nothing sensible to normalize by).
func Normalize(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	if len(xs) == 0 || xs[0] == 0 {
		return out
	}
	for i := range out {
		out[i] /= xs[0]
	}
	return out
}

// Accumulator collects streaming observations with O(1) memory.
// The zero value is ready to use.
type Accumulator struct {
	n        int
	sum, ssq float64
	min, max float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	a.sum += x
	a.ssq += x * x
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Sum returns the running total.
func (a *Accumulator) Sum() float64 { return a.sum }

// Mean returns the running mean, or 0 when empty.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Variance returns the unbiased running variance, or 0 for n < 2.
// Negative rounding artifacts are clamped to 0.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	m := a.Mean()
	v := (a.ssq - float64(a.n)*m*m) / float64(a.n-1)
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the running standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest observation, or +Inf when empty.
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.Inf(1)
	}
	return a.min
}

// Max returns the largest observation, or -Inf when empty.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.Inf(-1)
	}
	return a.max
}
