// Package routing computes shortest-path routes over a topology graph,
// standing in for the OSPF-like routing the paper's simulator uses. Link
// cost is propagation latency, so the shortest path is the
// minimum-latency path — exactly what OSPF computes with
// latency-proportional interface costs.
package routing

import (
	"fmt"
	"math"

	"rmscale/internal/topology"
)

// Route describes the minimum-latency path from one node to another:
// the summed link latency and the bottleneck (minimum) bandwidth along
// it, which the message fabric uses for transmission delay. A node's
// route to itself has latency 0 and bandwidth +Inf; an unreachable
// node's has latency +Inf and bandwidth 0.
type Route struct {
	Latency   float64
	Bandwidth float64
}

// Router answers route queries over one graph with Dijkstra's
// algorithm. It keeps its scratch across queries, so a warm router
// allocates nothing. A Router is not safe for concurrent use.
type Router struct {
	g    *topology.Graph
	dist []float64
	bw   []float64
	// reached, settled and wanted stamp a node with the query (gen) that
	// last reached it, settled it or asked for it, so a query never
	// clears per-node state. A 64-bit count of queries does not wrap.
	reached, settled, wanted []uint64
	gen                      uint64
	pq                       []nodeItem
}

// NewRouter returns a router over g.
func NewRouter(g *topology.Graph) *Router {
	return &Router{
		g:       g,
		dist:    make([]float64, g.N),
		bw:      make([]float64, g.N),
		reached: make([]uint64, g.N),
		settled: make([]uint64, g.N),
		wanted:  make([]uint64, g.N),
	}
}

// Routes writes the route from src to dsts[i] into out[i]. dsts may
// repeat nodes and may contain src. The search stops once every
// destination is settled: link latencies are positive and relaxation is
// strict, so a settled node's route never changes afterwards, and each
// route equals the one a search over the whole graph finds, bit for
// bit.
func (r *Router) Routes(src int, dsts []int, out []Route) error {
	n := r.g.N
	if src < 0 || src >= n {
		return fmt.Errorf("routing: source %d out of range [0,%d)", src, n)
	}
	if len(out) < len(dsts) {
		return fmt.Errorf("routing: %d destinations but room for %d routes", len(dsts), len(out))
	}
	r.gen++
	gen := r.gen
	pending := 0
	for _, d := range dsts {
		if d < 0 || d >= n {
			return fmt.Errorf("routing: destination %d out of range [0,%d)", d, n)
		}
		if r.wanted[d] != gen {
			r.wanted[d] = gen
			pending++
		}
	}

	r.dist[src], r.bw[src], r.reached[src] = 0, math.Inf(1), gen
	pq := append(r.pq[:0], nodeItem{node: src})
	for len(pq) > 0 && pending > 0 {
		var it nodeItem
		pq, it = pop(pq)
		u := it.node
		if r.settled[u] == gen {
			continue
		}
		r.settled[u] = gen
		if r.wanted[u] == gen {
			if pending--; pending == 0 {
				break
			}
		}
		du, bu := r.dist[u], r.bw[u]
		for _, e := range r.g.Adj[u] {
			v := e.To
			dv := math.Inf(1)
			if r.reached[v] == gen {
				dv = r.dist[v]
			}
			nd := du + e.Latency
			if !(nd < dv) {
				continue
			}
			bw := e.Bandwidth
			if bu < bw {
				bw = bu
			}
			r.dist[v], r.bw[v], r.reached[v] = nd, bw, gen
			pq = push(pq, nodeItem{node: v, dist: nd})
		}
	}
	r.pq = pq

	for i, d := range dsts {
		if r.reached[d] == gen {
			out[i] = Route{Latency: r.dist[d], Bandwidth: r.bw[d]}
		} else {
			out[i] = Route{Latency: math.Inf(1)}
		}
	}
	return nil
}

// nodeItem is one entry of the Dijkstra priority queue.
type nodeItem struct {
	node int
	dist float64
}

// push and pop are container/heap's Push and Pop (its up and down)
// specialised to nodeItem, with the same comparisons and swaps: items
// pop in container/heap's order, which fixes every tie-break between
// equal-latency paths and with it each route's bits.
func push(q []nodeItem, it nodeItem) []nodeItem {
	q = append(q, it)
	j := len(q) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	return q
}

func pop(q []nodeItem) ([]nodeItem, nodeItem) {
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].dist < q[j1].dist {
			j = j2 // right child
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	return q[:n], q[n]
}
