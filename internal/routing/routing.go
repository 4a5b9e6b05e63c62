// Package routing computes shortest-path routes over a topology graph,
// standing in for the OSPF-like routing the paper's simulator uses. Link
// cost is propagation latency, so the shortest path is the
// minimum-latency path — exactly what OSPF computes with
// latency-proportional interface costs.
package routing

import (
	"container/heap"
	"fmt"
	"math"

	"rmscale/internal/topology"
)

// Table holds the routing state for one source node: latency, hop count
// and next hop to every destination, plus the bottleneck (minimum)
// bandwidth along the chosen path, which the message fabric uses for
// transmission delay.
type Table struct {
	Source    int
	Latency   []float64
	Hops      []int
	NextHop   []int
	Bandwidth []float64 // bottleneck bandwidth along the path
}

// SPF runs Dijkstra's algorithm from src over g. Unreachable nodes get
// +Inf latency, hop count -1 and next hop -1.
func SPF(g *topology.Graph, src int) (*Table, error) {
	if src < 0 || src >= g.N {
		return nil, fmt.Errorf("routing: source %d out of range [0,%d)", src, g.N)
	}
	t := &Table{
		Source:    src,
		Latency:   make([]float64, g.N),
		Hops:      make([]int, g.N),
		NextHop:   make([]int, g.N),
		Bandwidth: make([]float64, g.N),
	}
	for i := range t.Latency {
		t.Latency[i] = math.Inf(1)
		t.Hops[i] = -1
		t.NextHop[i] = -1
	}
	t.Latency[src] = 0
	t.Hops[src] = 0
	t.NextHop[src] = src
	t.Bandwidth[src] = math.Inf(1)

	pq := &nodeQueue{{node: src, dist: 0}}
	done := make([]bool, g.N)
	for pq.Len() > 0 {
		item := heap.Pop(pq).(nodeItem)
		u := item.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.Adj[u] {
			nd := t.Latency[u] + e.Latency
			if nd < t.Latency[e.To] {
				t.Latency[e.To] = nd
				t.Hops[e.To] = t.Hops[u] + 1
				bw := e.Bandwidth
				if t.Bandwidth[u] < bw {
					bw = t.Bandwidth[u]
				}
				t.Bandwidth[e.To] = bw
				if u == src {
					t.NextHop[e.To] = e.To
				} else {
					t.NextHop[e.To] = t.NextHop[u]
				}
				heap.Push(pq, nodeItem{node: e.To, dist: nd})
			}
		}
	}
	return t, nil
}

// Path reconstructs the node sequence from the table's source to dst by
// repeated next-hop lookups. Returns nil when dst is unreachable.
func (t *Table) Path(g *topology.Graph, dst int) []int {
	if dst < 0 || dst >= g.N || t.NextHop[dst] == -1 {
		return nil
	}
	// Walk from dst back using a forward SPF from each hop would be
	// O(n^2); instead walk forward from source following next hops.
	path := []int{t.Source}
	cur := t.Source
	for cur != dst {
		// Next hop toward dst from cur: recompute via the invariant
		// that the next hop from the source leads onto the shortest
		// path; for intermediate nodes we step greedily along edges
		// that keep us on a shortest path.
		advanced := false
		for _, e := range g.Adj[cur] {
			if math.Abs((t.Latency[cur]+e.Latency)-t.Latency[e.To]) < 1e-9 &&
				t.Hops[e.To] == t.Hops[cur]+1 && onPathTo(t, g, e.To, dst) {
				cur = e.To
				path = append(path, cur)
				advanced = true
				break
			}
		}
		if !advanced {
			return nil
		}
		if len(path) > g.N {
			return nil
		}
	}
	return path
}

// onPathTo reports whether some shortest path from the table's source to
// dst passes through via. It checks the subpath-optimality condition
// d(src,via) + d(via,dst) == d(src,dst) using a reverse SPF cache-free
// check: we only need d(via,dst), computed by a bounded BFS-like probe.
// For simplicity and because Path is a debugging/diagnostic helper (the
// simulator itself uses only Latency/Hops/Bandwidth), we run a local SPF.
func onPathTo(t *Table, g *topology.Graph, via, dst int) bool {
	rt, err := SPF(g, via)
	if err != nil {
		return false
	}
	return math.Abs(t.Latency[via]+rt.Latency[dst]-t.Latency[dst]) < 1e-9
}

// Matrix holds all-pairs routing results for the node subset the grid
// actually communicates between. Entry [i][j] describes the route from
// node ids[i] to node ids[j].
type Matrix struct {
	// Index maps graph node id -> row/column in the matrix.
	Index map[int]int
	// IDs lists graph node ids in matrix order.
	IDs       []int
	Latency   [][]float64
	Hops      [][]int
	Bandwidth [][]float64
}

// AllPairs computes routes between every pair of the given endpoint
// nodes (deduplicated). It runs one SPF per distinct endpoint, which for
// the grid's schedulers+resources+estimators is far cheaper than a full
// all-nodes product on large router graphs.
func AllPairs(g *topology.Graph, endpoints []int) (*Matrix, error) {
	m := &Matrix{Index: make(map[int]int)}
	for _, u := range endpoints {
		if u < 0 || u >= g.N {
			return nil, fmt.Errorf("routing: endpoint %d out of range", u)
		}
		if _, dup := m.Index[u]; !dup {
			m.Index[u] = len(m.IDs)
			m.IDs = append(m.IDs, u)
		}
	}
	n := len(m.IDs)
	m.Latency = make([][]float64, n)
	m.Hops = make([][]int, n)
	m.Bandwidth = make([][]float64, n)
	for i, u := range m.IDs {
		t, err := SPF(g, u)
		if err != nil {
			return nil, err
		}
		m.Latency[i] = make([]float64, n)
		m.Hops[i] = make([]int, n)
		m.Bandwidth[i] = make([]float64, n)
		for j, v := range m.IDs {
			m.Latency[i][j] = t.Latency[v]
			m.Hops[i][j] = t.Hops[v]
			m.Bandwidth[i][j] = t.Bandwidth[v]
		}
	}
	return m, nil
}

// nodeItem / nodeQueue implement the Dijkstra priority queue.
type nodeItem struct {
	node int
	dist float64
}

type nodeQueue []nodeItem

func (q nodeQueue) Len() int           { return len(q) }
func (q nodeQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q nodeQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x any)        { *q = append(*q, x.(nodeItem)) }
func (q *nodeQueue) Pop() (popped any) { // named result clarifies the contract
	old := *q
	n := len(old)
	popped = old[n-1]
	*q = old[:n-1]
	return popped
}
