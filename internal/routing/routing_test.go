package routing

import (
	"math"
	"testing"
	"testing/quick"

	"rmscale/internal/sim"
	"rmscale/internal/topology"
)

// lineGraph builds 0-1-2-...-n-1 with unit latencies and bandwidth 100.
func lineGraph(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1, 1, 100); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// allNodes lists every node of g, the destination list of a search over
// the whole graph.
func allNodes(g *topology.Graph) []int {
	ids := make([]int, g.N)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// fullSearch returns the routes from src to every node of g.
func fullSearch(t testing.TB, g *topology.Graph, src int) []Route {
	t.Helper()
	out := make([]Route, g.N)
	if err := NewRouter(g).Routes(src, allNodes(g), out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSPFLine(t *testing.T) {
	g := lineGraph(t, 5)
	rt := fullSearch(t, g, 0)
	for v := 1; v < 5; v++ {
		if rt[v] != (Route{Latency: float64(v), Bandwidth: 100}) {
			t.Errorf("route to %d = %+v, want latency %d, bandwidth 100", v, rt[v], v)
		}
	}
	if rt[0].Latency != 0 || !math.IsInf(rt[0].Bandwidth, 1) {
		t.Errorf("self route = %+v, want latency 0, bandwidth +Inf", rt[0])
	}
}

func TestSPFPrefersLowLatencyOverFewHops(t *testing.T) {
	// 0-1-2 with latency 1 each, plus direct 0-2 with latency 5; the
	// two-hop path is narrower, so its bandwidth shows which one won.
	g := topology.NewGraph(3)
	for _, e := range []struct {
		u, v    int
		lat, bw float64
	}{{0, 1, 1, 100}, {1, 2, 1, 50}, {0, 2, 5, 100}} {
		if err := g.AddEdge(e.u, e.v, e.lat, e.bw); err != nil {
			t.Fatal(err)
		}
	}
	if rt := fullSearch(t, g, 0)[2]; rt != (Route{Latency: 2, Bandwidth: 50}) {
		t.Fatalf("route to 2 = %+v, want latency 2 over the two-hop path", rt)
	}
}

func TestSPFBottleneckBandwidth(t *testing.T) {
	g := topology.NewGraph(3)
	if err := g.AddEdge(0, 1, 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 1, 10); err != nil {
		t.Fatal(err)
	}
	rt := fullSearch(t, g, 0)
	if rt[2].Bandwidth != 10 {
		t.Fatalf("bottleneck to 2 = %v, want 10", rt[2].Bandwidth)
	}
	if rt[1].Bandwidth != 100 {
		t.Fatalf("bottleneck to 1 = %v, want 100", rt[1].Bandwidth)
	}
}

func TestSPFUnreachable(t *testing.T) {
	g := topology.NewGraph(3)
	if err := g.AddEdge(0, 1, 1, 100); err != nil {
		t.Fatal(err)
	}
	if rt := fullSearch(t, g, 0)[2]; !math.IsInf(rt.Latency, 1) || rt.Bandwidth != 0 {
		t.Fatalf("unreachable node not marked: %+v", rt)
	}
}

func TestSPFBadSource(t *testing.T) {
	g := lineGraph(t, 3)
	r := NewRouter(g)
	out := make([]Route, 1)
	if err := r.Routes(-1, []int{0}, out); err == nil {
		t.Error("negative source accepted")
	}
	if err := r.Routes(3, []int{0}, out); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestRoutesBadDestination(t *testing.T) {
	g := lineGraph(t, 3)
	r := NewRouter(g)
	out := make([]Route, 2)
	if err := r.Routes(0, []int{0, 9}, out); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if err := r.Routes(0, []int{-1}, out); err == nil {
		t.Error("negative destination accepted")
	}
	if err := r.Routes(0, []int{0, 1, 2}, out); err == nil {
		t.Error("destination list longer than out accepted")
	}
	// A rejected query leaves the router usable.
	if err := r.Routes(0, []int{2, 1}, out); err != nil {
		t.Fatal(err)
	}
	if out[0].Latency != 2 || out[1].Latency != 1 {
		t.Fatalf("routes after a rejected query = %+v", out)
	}
}

func TestRoutesDuplicateDestinations(t *testing.T) {
	g := lineGraph(t, 6)
	out := make([]Route, 4)
	if err := NewRouter(g).Routes(3, []int{0, 3, 5, 3}, out); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{3, 0, 2, 0} {
		if out[i].Latency != want {
			t.Fatalf("route %d = %+v, want latency %v", i, out[i], want)
		}
	}
	if out[1] != out[3] || !math.IsInf(out[1].Bandwidth, 1) {
		t.Fatalf("self routes differ or have finite bandwidth: %+v, %+v", out[1], out[3])
	}
}

// Property: search distances satisfy the triangle inequality over
// edges (relaxation fixpoint) and symmetry on undirected graphs.
func TestSPFOptimalityProperty(t *testing.T) {
	src := sim.NewSource(4242)
	g, err := topology.PowerLaw(80, 2, topology.DefaultLinkParams(), src.Stream("g"))
	if err != nil {
		t.Fatal(err)
	}
	tables := make([][]Route, g.N)
	for u := 0; u < g.N; u++ {
		tables[u] = fullSearch(t, g, u)
	}
	// Fixpoint: no edge can relax any distance further.
	for u := 0; u < g.N; u++ {
		for _, e := range g.Adj[u] {
			for s := 0; s < g.N; s++ {
				if tables[s][e.To].Latency > tables[s][u].Latency+e.Latency+1e-9 {
					t.Fatalf("edge %d-%d relaxes distance from %d", u, e.To, s)
				}
			}
		}
	}
	// Symmetry: d(u,v) == d(v,u) up to rounding — the two sums add the
	// same link latencies in opposite order.
	f := func(a, b uint8) bool {
		u, v := int(a)%g.N, int(b)%g.N
		return math.Abs(tables[u][v].Latency-tables[v][u].Latency) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// sameBits reports whether two routes are equal bit for bit.
func sameBits(a, b Route) bool {
	return math.Float64bits(a.Latency) == math.Float64bits(b.Latency) &&
		math.Float64bits(a.Bandwidth) == math.Float64bits(b.Bandwidth)
}

// Differential: a query that stops once its destinations are settled
// returns exactly what a search over the whole graph does — latency and
// bandwidth bit for bit — on one router reused across many queries.
// The graphs include the 388-node shape of quick Case 1 at k=6.
func TestRoutesEarlyStopMatchesFullSearch(t *testing.T) {
	for _, tc := range []struct {
		nodes, m int
		seed     int64
	}{{40, 1, 1}, {80, 2, 2}, {200, 3, 3}, {388, 2, 4}} {
		src := sim.NewSource(tc.seed)
		g, err := topology.PowerLaw(tc.nodes, tc.m, topology.DefaultLinkParams(), src.Stream("g"))
		if err != nil {
			t.Fatal(err)
		}
		full := make([][]Route, g.N)
		for u := range full {
			full[u] = fullSearch(t, g, u)
		}
		pick := src.Stream("queries")
		r := NewRouter(g)
		dsts := make([]int, 0, 12)
		out := make([]Route, 12)
		for q := 0; q < 300; q++ {
			s := pick.Intn(g.N)
			dsts = dsts[:0]
			for i, n := 0, pick.IntRange(1, 10); i < n; i++ {
				dsts = append(dsts, pick.Intn(g.N))
			}
			if pick.Bool(0.3) {
				dsts = append(dsts, s)
			}
			if pick.Bool(0.3) {
				dsts = append(dsts, dsts[0])
			}
			if err := r.Routes(s, dsts, out); err != nil {
				t.Fatal(err)
			}
			for i, d := range dsts {
				if !sameBits(out[i], full[s][d]) {
					t.Fatalf("%d nodes: route %d->%d = %+v, full search %+v", g.N, s, d, out[i], full[s][d])
				}
			}
		}
	}
}

func TestRoutesWarmZeroAlloc(t *testing.T) {
	g, err := topology.PowerLaw(388, 2, topology.DefaultLinkParams(), sim.NewSource(9).Stream("g"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g)
	dsts := allNodes(g)
	out := make([]Route, len(dsts))
	for s := 0; s < g.N; s++ { // grow the queue to every source's peak
		if err := r.Routes(s, dsts, out); err != nil {
			t.Fatal(err)
		}
	}
	src := 0
	allocs := testing.AllocsPerRun(20, func() {
		src = (src + 7) % g.N
		if err := r.Routes(src, dsts[:50], out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Routes allocates %v per query, want 0", allocs)
	}
}

func BenchmarkRoutes1000(b *testing.B) {
	g, err := topology.PowerLaw(1000, 2, topology.DefaultLinkParams(), sim.NewSource(5).Stream("g"))
	if err != nil {
		b.Fatal(err)
	}
	r := NewRouter(g)
	dsts := allNodes(g)[:100]
	out := make([]Route, len(dsts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Routes(i%g.N, dsts, out); err != nil {
			b.Fatal(err)
		}
	}
}
