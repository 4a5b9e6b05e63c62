// Package topology generates and manipulates the network graphs the grid
// simulation runs on. It substitutes for the Mercator Internet-map
// extractions used by the paper: the default generator produces
// router-level graphs with power-law degree distributions (preferential
// attachment) like the Mercator heuristic discovered on the real
// Internet, and alternative Waxman and ring-of-cliques generators are
// provided for sensitivity studies.
package topology

import (
	"fmt"
	"math"
)

// Edge is one directed half of an undirected link.
type Edge struct {
	To        int
	Latency   float64 // propagation delay, simulated time units
	Bandwidth float64 // capacity, size units per time unit
}

// Graph is an undirected weighted graph in adjacency-list form. Nodes are
// dense integers [0, N).
type Graph struct {
	N   int
	Adj [][]Edge
}

// NewGraph returns an edgeless graph with n nodes.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("topology: negative node count")
	}
	return &Graph{N: n, Adj: make([][]Edge, n)}
}

// AddEdge inserts an undirected edge u–v. Self-loops and duplicate edges
// are rejected with an error so generator bugs surface early.
func (g *Graph) AddEdge(u, v int, latency, bandwidth float64) error {
	if u < 0 || u >= g.N || v < 0 || v >= g.N {
		return fmt.Errorf("topology: edge %d-%d out of range [0,%d)", u, v, g.N)
	}
	if u == v {
		return fmt.Errorf("topology: self-loop at %d", u)
	}
	// Routing relies on positive latencies; NaN fails these checks too.
	if !(latency > 0) || !(bandwidth > 0) {
		return fmt.Errorf("topology: edge %d-%d needs positive latency and bandwidth", u, v)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("topology: duplicate edge %d-%d", u, v)
	}
	g.Adj[u] = append(g.Adj[u], Edge{To: v, Latency: latency, Bandwidth: bandwidth})
	g.Adj[v] = append(g.Adj[v], Edge{To: u, Latency: latency, Bandwidth: bandwidth})
	return nil
}

// HasEdge reports whether an edge u–v exists.
func (g *Graph) HasEdge(u, v int) bool {
	for _, e := range g.Adj[u] {
		if e.To == v {
			return true
		}
	}
	return false
}

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int { return len(g.Adj[u]) }

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int {
	total := 0
	for _, a := range g.Adj {
		total += len(a)
	}
	return total / 2
}

// Connected reports whether the graph is a single connected component.
// The empty graph is vacuously connected.
func (g *Graph) Connected() bool {
	if g.N == 0 {
		return true
	}
	seen := make([]bool, g.N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == g.N
}

// BFSOrder returns nodes in breadth-first order from src, used to place
// a cluster's resources on the routers nearest its scheduler.
func (g *Graph) BFSOrder(src int) []int {
	if src < 0 || src >= g.N {
		panic(fmt.Sprintf("topology: BFS source %d out of range", src))
	}
	order := make([]int, 0, g.N)
	seen := make([]bool, g.N)
	queue := []int{src}
	seen[src] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, e := range g.Adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return order
}

// DegreeStats summarizes the degree distribution: used by tests to check
// that the power-law generator actually produces heavy-tailed graphs.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// TailRatio is maxDegree / meanDegree; heavy-tailed graphs have a
	// large ratio, near-regular graphs are close to 1.
	TailRatio float64
}

// DegreeDistribution computes summary statistics of node degrees.
func (g *Graph) DegreeDistribution() DegreeStats {
	if g.N == 0 {
		return DegreeStats{}
	}
	min, max, sum := math.MaxInt, 0, 0
	for u := 0; u < g.N; u++ {
		d := g.Degree(u)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
		sum += d
	}
	mean := float64(sum) / float64(g.N)
	tr := 0.0
	if mean > 0 {
		tr = float64(max) / mean
	}
	return DegreeStats{Min: min, Max: max, Mean: mean, TailRatio: tr}
}
