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

func TestSPFLine(t *testing.T) {
	g := lineGraph(t, 5)
	tab, err := SPF(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if tab.Latency[v] != float64(v) {
			t.Errorf("latency to %d = %v, want %d", v, tab.Latency[v], v)
		}
		if tab.Hops[v] != v {
			t.Errorf("hops to %d = %d, want %d", v, tab.Hops[v], v)
		}
	}
	if tab.NextHop[4] != 1 {
		t.Errorf("next hop to 4 = %d, want 1", tab.NextHop[4])
	}
	if tab.NextHop[0] != 0 || tab.Latency[0] != 0 {
		t.Error("self route wrong")
	}
}

func TestSPFPrefersLowLatencyOverFewHops(t *testing.T) {
	// 0-1-2 with latency 1 each, plus direct 0-2 with latency 5.
	g := topology.NewGraph(3)
	for _, e := range []struct {
		u, v int
		lat  float64
	}{{0, 1, 1}, {1, 2, 1}, {0, 2, 5}} {
		if err := g.AddEdge(e.u, e.v, e.lat, 100); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := SPF(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Latency[2] != 2 || tab.Hops[2] != 2 || tab.NextHop[2] != 1 {
		t.Fatalf("route to 2: latency=%v hops=%d next=%d, want 2/2/1",
			tab.Latency[2], tab.Hops[2], tab.NextHop[2])
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
	tab, err := SPF(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Bandwidth[2] != 10 {
		t.Fatalf("bottleneck to 2 = %v, want 10", tab.Bandwidth[2])
	}
	if tab.Bandwidth[1] != 100 {
		t.Fatalf("bottleneck to 1 = %v, want 100", tab.Bandwidth[1])
	}
}

func TestSPFUnreachable(t *testing.T) {
	g := topology.NewGraph(3)
	if err := g.AddEdge(0, 1, 1, 100); err != nil {
		t.Fatal(err)
	}
	tab, err := SPF(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(tab.Latency[2], 1) || tab.Hops[2] != -1 || tab.NextHop[2] != -1 {
		t.Fatalf("unreachable node not marked: %v/%d/%d",
			tab.Latency[2], tab.Hops[2], tab.NextHop[2])
	}
}

func TestSPFBadSource(t *testing.T) {
	g := lineGraph(t, 3)
	if _, err := SPF(g, -1); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := SPF(g, 3); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestPathReconstruction(t *testing.T) {
	g := lineGraph(t, 5)
	tab, err := SPF(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := tab.Path(g, 4)
	want := []int{0, 1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestPathUnreachableNil(t *testing.T) {
	g := topology.NewGraph(2)
	tab, err := SPF(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Path(g, 1) != nil {
		t.Fatal("unreachable path should be nil")
	}
	if tab.Path(g, 7) != nil {
		t.Fatal("out-of-range path should be nil")
	}
}

func TestAllPairs(t *testing.T) {
	g := lineGraph(t, 6)
	m, err := AllPairs(g, []int{0, 3, 5, 3}) // duplicate 3 must dedup
	if err != nil {
		t.Fatal(err)
	}
	if len(m.IDs) != 3 {
		t.Fatalf("IDs = %v, want 3 distinct", m.IDs)
	}
	i0, i3, i5 := m.Index[0], m.Index[3], m.Index[5]
	if lat, hops := m.Latency[i0][i5], m.Hops[i0][i5]; lat != 5 || hops != 5 {
		t.Fatalf("0->5 = %v,%d", lat, hops)
	}
	if lat := m.Latency[i3][i0]; lat != 3 {
		t.Fatalf("3->0 = %v", lat)
	}
	if _, ok := m.Index[2]; ok {
		t.Fatal("non-endpoint indexed")
	}
}

func TestAllPairsBadEndpoint(t *testing.T) {
	g := lineGraph(t, 3)
	if _, err := AllPairs(g, []int{0, 9}); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

// Property: SPF distances satisfy the triangle inequality over edges
// (relaxation fixpoint) and symmetry on undirected graphs.
func TestSPFOptimalityProperty(t *testing.T) {
	src := sim.NewSource(4242)
	g, err := topology.PowerLaw(80, 2, topology.DefaultLinkParams(), src.Stream("g"))
	if err != nil {
		t.Fatal(err)
	}
	tables := make([]*Table, g.N)
	for u := 0; u < g.N; u++ {
		tables[u], err = SPF(g, u)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Fixpoint: no edge can relax any distance further.
	for u := 0; u < g.N; u++ {
		for _, e := range g.Adj[u] {
			for s := 0; s < g.N; s++ {
				if tables[s].Latency[e.To] > tables[s].Latency[u]+e.Latency+1e-9 {
					t.Fatalf("edge %d-%d relaxes distance from %d", u, e.To, s)
				}
			}
		}
	}
	// Symmetry: d(u,v) == d(v,u).
	f := func(a, b uint8) bool {
		u, v := int(a)%g.N, int(b)%g.N
		return math.Abs(tables[u].Latency[v]-tables[v].Latency[u]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: hop counts along reconstructed paths match the table.
func TestPathLengthMatchesHops(t *testing.T) {
	src := sim.NewSource(777)
	g, err := topology.PowerLaw(40, 2, topology.DefaultLinkParams(), src.Stream("g"))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := SPF(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N; v++ {
		p := tab.Path(g, v)
		if p == nil {
			t.Fatalf("no path to %d in connected graph", v)
		}
		if len(p)-1 != tab.Hops[v] {
			t.Fatalf("path to %d has %d hops, table says %d", v, len(p)-1, tab.Hops[v])
		}
	}
}

func BenchmarkSPF1000(b *testing.B) {
	src := sim.NewSource(5)
	g, err := topology.PowerLaw(1000, 2, topology.DefaultLinkParams(), src.Stream("g"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SPF(g, i%g.N); err != nil {
			b.Fatal(err)
		}
	}
}
