package routing

import (
	"fmt"
	"sort"
)

// This file models access-link outages: windows during which a grid
// endpoint's attachment to the network is severed, so every message to
// or from it is lost. Outage windows are pre-generated per endpoint
// from an injected random source before the simulation starts, which
// keeps the schedule deterministic and independent of the order other
// simulation components draw random numbers.

// ExpSource is the random source an outage plan draws from. It is
// satisfied by sim.Stream without routing importing the sim package.
type ExpSource interface {
	// Exp returns an exponential variate with the given mean.
	Exp(mean float64) float64
}

// window is one [start, end) outage interval.
type window struct {
	start, end float64
}

// Outages is a deterministic per-endpoint outage schedule.
type Outages struct {
	// windows[node] holds that endpoint's outage intervals sorted by
	// start time; nodes without entries never fail.
	windows map[int][]window
}

// PlanOutages samples outage windows for every endpoint over [0,
// horizon): each endpoint alternates an up interval drawn Exp(mtbf)
// with a down interval of the fixed duration. A non-positive mtbf or
// duration yields an empty (fault-free) plan.
func PlanOutages(endpoints []int, mtbf, duration, horizon float64, src ExpSource) (*Outages, error) {
	o := &Outages{windows: make(map[int][]window)}
	if mtbf <= 0 || duration <= 0 || horizon <= 0 {
		return o, nil
	}
	if src == nil {
		return nil, fmt.Errorf("routing: outage plan needs a random source")
	}
	// Deterministic node order: the draw sequence must not depend on
	// the caller's slice order quirks, so sort a private copy.
	nodes := append([]int(nil), endpoints...)
	sort.Ints(nodes)
	seen := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		if seen[n] {
			continue
		}
		seen[n] = true
		t := src.Exp(mtbf)
		for t < horizon {
			o.windows[n] = append(o.windows[n], window{start: t, end: t + duration})
			t += duration + src.Exp(mtbf)
		}
	}
	return o, nil
}

// Severed reports whether the endpoint's access link is down at time t.
func (o *Outages) Severed(node int, t float64) bool {
	if o == nil {
		return false
	}
	ws := o.windows[node]
	// Binary search for the first window ending after t.
	//lint:allow hotalloc the Search predicate closes over a local slice and t only; sort.Search does not retain it, so it stays off the heap
	i := sort.Search(len(ws), func(i int) bool { return ws[i].end > t })
	return i < len(ws) && ws[i].start <= t
}

// SeveredPath reports whether a message between the two endpoints at
// time t is lost to an outage: either end being severed cuts the path.
func (o *Outages) SeveredPath(from, to int, t float64) bool {
	return o.Severed(from, t) || o.Severed(to, t)
}
