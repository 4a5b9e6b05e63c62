package topology

import (
	"fmt"
	"math"
	"slices"

	"rmscale/internal/sim"
)

// LinkParams bounds the random latency and bandwidth assigned to
// generated links.
type LinkParams struct {
	MinLatency, MaxLatency     float64
	MinBandwidth, MaxBandwidth float64
}

// DefaultLinkParams matches the paper's "finite bandwidth and non-zero
// latencies": latencies of a fraction of a time unit (jobs run for
// hundreds of units), generous but finite bandwidth.
func DefaultLinkParams() LinkParams {
	return LinkParams{MinLatency: 0.2, MaxLatency: 2.0, MinBandwidth: 50, MaxBandwidth: 200}
}

// Validate reports the first non-finite bound or bad range.
func (p LinkParams) Validate() error {
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"MinLatency", p.MinLatency},
		{"MaxLatency", p.MaxLatency},
		{"MinBandwidth", p.MinBandwidth},
		{"MaxBandwidth", p.MaxBandwidth},
	} {
		if math.IsNaN(v.val) || math.IsInf(v.val, 0) {
			return fmt.Errorf("topology: %s must be finite, got %v", v.name, v.val)
		}
	}
	if p.MinLatency <= 0 || p.MaxLatency < p.MinLatency {
		return fmt.Errorf("topology: bad latency range [%v,%v]", p.MinLatency, p.MaxLatency)
	}
	if p.MinBandwidth <= 0 || p.MaxBandwidth < p.MinBandwidth {
		return fmt.Errorf("topology: bad bandwidth range [%v,%v]", p.MinBandwidth, p.MaxBandwidth)
	}
	return nil
}

func (p LinkParams) draw(st *sim.Stream) (latency, bandwidth float64) {
	return st.Uniform(p.MinLatency, p.MaxLatency), st.Uniform(p.MinBandwidth, p.MaxBandwidth)
}

// PowerLaw generates an Internet-like graph by preferential attachment
// (Barabási–Albert): each new node attaches to m existing nodes chosen
// with probability proportional to degree. The result is connected and
// has the heavy-tailed degree distribution the Mercator maps exhibit.
func PowerLaw(n, m int, lp LinkParams, st *sim.Stream) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: PowerLaw needs n >= 2, got %d", n)
	}
	if m < 1 {
		return nil, fmt.Errorf("topology: PowerLaw needs m >= 1, got %d", m)
	}
	if err := lp.Validate(); err != nil {
		return nil, err
	}
	g := NewGraph(n)
	// Seed clique of size min(m+1, n).
	seed := m + 1
	if seed > n {
		seed = n
	}
	for u := 0; u < seed; u++ {
		for v := u + 1; v < seed; v++ {
			lat, bw := lp.draw(st)
			if err := g.AddEdge(u, v, lat, bw); err != nil {
				return nil, err
			}
		}
	}
	// targets holds one entry per degree endpoint, so uniform sampling
	// from it is degree-proportional sampling.
	targets := make([]int, 0, seed*(seed-1)+2*m*(n-seed))
	for u := 0; u < seed; u++ {
		for i := 0; i < g.Degree(u); i++ {
			targets = append(targets, u)
		}
	}
	attached := make([]int, 0, min(m, n)) // this node's targets, in draw order
	for u := seed; u < n; u++ {
		attached = attached[:0]
		for len(attached) < m && len(attached) < u {
			v := targets[st.Intn(len(targets))]
			if v == u || slices.Contains(attached, v) {
				continue
			}
			attached = append(attached, v)
		}
		for _, v := range attached {
			lat, bw := lp.draw(st)
			if err := g.AddEdge(u, v, lat, bw); err != nil {
				return nil, err
			}
			targets = append(targets, u, v)
		}
	}
	return g, nil
}

// Waxman generates a random geometric graph on the unit square with edge
// probability alpha*exp(-d/(beta*L)) where d is Euclidean distance and L
// the maximum distance. Connectivity is repaired by chaining each
// stranded component to its nearest placed neighbour, so the result is
// always connected. Latency is proportional to distance.
func Waxman(n int, alpha, beta float64, lp LinkParams, st *sim.Stream) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: Waxman needs n >= 2, got %d", n)
	}
	if alpha <= 0 || alpha > 1 || beta <= 0 || beta > 1 {
		return nil, fmt.Errorf("topology: Waxman needs alpha,beta in (0,1], got %v,%v", alpha, beta)
	}
	if err := lp.Validate(); err != nil {
		return nil, err
	}
	type pt struct{ x, y float64 }
	pts := make([]pt, n)
	for i := range pts {
		pts[i] = pt{st.Float64(), st.Float64()}
	}
	dist := func(a, b int) float64 {
		dx, dy := pts[a].x-pts[b].x, pts[a].y-pts[b].y
		return math.Hypot(dx, dy)
	}
	const maxDist = math.Sqrt2
	g := NewGraph(n)
	latFor := func(d float64) float64 {
		return lp.MinLatency + (lp.MaxLatency-lp.MinLatency)*d/maxDist
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			d := dist(u, v)
			if st.Float64() < alpha*math.Exp(-d/(beta*maxDist)) {
				_, bw := lp.draw(st)
				if err := g.AddEdge(u, v, latFor(d), bw); err != nil {
					return nil, err
				}
			}
		}
	}
	// Repair connectivity: union-find over components, connect each
	// extra component to its geometrically nearest node outside it.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for u := 0; u < n; u++ {
		for _, e := range g.Adj[u] {
			union(u, e.To)
		}
	}
	for u := 1; u < n; u++ {
		if find(u) == find(0) {
			continue
		}
		best, bestD := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if find(v) != find(u) {
				if d := dist(u, v); d < bestD {
					best, bestD = v, d
				}
			}
		}
		_, bw := lp.draw(st)
		if err := g.AddEdge(u, best, latFor(bestD), bw); err != nil {
			return nil, err
		}
		union(u, best)
	}
	return g, nil
}

// RingOfCliques builds cliques of size cliqueSize whose first members are
// joined in a ring. It is a deliberately regular topology used as a
// contrast case to the power-law generator in ablation studies.
func RingOfCliques(cliques, cliqueSize int, lp LinkParams, st *sim.Stream) (*Graph, error) {
	if cliques < 1 || cliqueSize < 1 {
		return nil, fmt.Errorf("topology: RingOfCliques needs positive sizes, got %d,%d", cliques, cliqueSize)
	}
	if err := lp.Validate(); err != nil {
		return nil, err
	}
	n := cliques * cliqueSize
	g := NewGraph(n)
	for c := 0; c < cliques; c++ {
		base := c * cliqueSize
		for i := 0; i < cliqueSize; i++ {
			for j := i + 1; j < cliqueSize; j++ {
				lat, bw := lp.draw(st)
				if err := g.AddEdge(base+i, base+j, lat, bw); err != nil {
					return nil, err
				}
			}
		}
	}
	if cliques > 1 {
		for c := 0; c < cliques; c++ {
			u := c * cliqueSize
			v := ((c + 1) % cliques) * cliqueSize
			if u == v || g.HasEdge(u, v) {
				continue
			}
			lat, bw := lp.draw(st)
			if err := g.AddEdge(u, v, lat, bw); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}
