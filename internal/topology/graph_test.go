package topology

import (
	"math"
	"testing"

	"rmscale/internal/sim"
)

func TestNewGraphEmpty(t *testing.T) {
	g := NewGraph(5)
	if g.N != 5 || g.Edges() != 0 {
		t.Fatalf("NewGraph(5): N=%d edges=%d", g.N, g.Edges())
	}
}

func TestNewGraphNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGraph(-1) did not panic")
		}
	}()
	NewGraph(-1)
}

func TestAddEdgeSymmetric(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 1, 1.5, 100); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatal("degrees wrong after AddEdge")
	}
	if g.Edges() != 1 {
		t.Fatalf("Edges() = %d, want 1", g.Edges())
	}
	e := g.Adj[0][0]
	if e.To != 1 || e.Latency != 1.5 || e.Bandwidth != 100 {
		t.Fatalf("edge attributes wrong: %+v", e)
	}
}

func TestAddEdgeRejections(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 0, 1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 5, 1, 1); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := g.AddEdge(-1, 0, 1, 1); err == nil {
		t.Error("negative node accepted")
	}
	if err := g.AddEdge(0, 1, 0, 1); err == nil {
		t.Error("zero latency accepted")
	}
	if err := g.AddEdge(0, 1, 1, 0); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if err := g.AddEdge(0, 1, math.NaN(), 1); err == nil {
		t.Error("NaN latency accepted")
	}
	if err := g.AddEdge(0, 1, 1, math.NaN()); err == nil {
		t.Error("NaN bandwidth accepted")
	}
	if err := g.AddEdge(0, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0, 1, 1); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestConnected(t *testing.T) {
	g := NewGraph(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	if g.Connected() {
		t.Error("graph with isolated node reported connected")
	}
	mustEdge(t, g, 2, 3)
	if !g.Connected() {
		t.Error("path graph reported disconnected")
	}
	if !NewGraph(0).Connected() {
		t.Error("empty graph should be connected")
	}
	if !NewGraph(1).Connected() {
		t.Error("single node should be connected")
	}
}

func mustEdge(t *testing.T, g *Graph, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v, 1, 100); err != nil {
		t.Fatal(err)
	}
}

func TestBFSOrder(t *testing.T) {
	// 0-1, 0-2, 1-3: BFS from 0 must visit 0 first, then {1,2}, then 3.
	g := NewGraph(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 3)
	order := g.BFSOrder(0)
	if len(order) != 4 || order[0] != 0 {
		t.Fatalf("BFS order = %v", order)
	}
	pos := map[int]int{}
	for i, u := range order {
		pos[u] = i
	}
	if pos[3] < pos[1] || pos[3] < pos[2] {
		t.Fatalf("BFS visited depth-2 node early: %v", order)
	}
}

func TestBFSOrderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGraph(2).BFSOrder(9)
}

func TestDegreeDistribution(t *testing.T) {
	g := NewGraph(4) // star around 0
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 0, 3)
	ds := g.DegreeDistribution()
	if ds.Min != 1 || ds.Max != 3 || ds.Mean != 1.5 || ds.TailRatio != 2 {
		t.Fatalf("DegreeStats = %+v", ds)
	}
	if (NewGraph(0).DegreeDistribution() != DegreeStats{}) {
		t.Error("empty graph stats should be zero")
	}
}

func stream(name string) *sim.Stream { return sim.NewSource(1234).Stream(name) }

func TestPowerLawProperties(t *testing.T) {
	g, err := PowerLaw(300, 2, DefaultLinkParams(), stream("pl"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 300 {
		t.Fatalf("N = %d", g.N)
	}
	if !g.Connected() {
		t.Fatal("power-law graph disconnected")
	}
	ds := g.DegreeDistribution()
	if ds.Min < 2 {
		t.Fatalf("min degree %d < m", ds.Min)
	}
	if ds.TailRatio < 3 {
		t.Fatalf("degree distribution not heavy-tailed: %+v", ds)
	}
}

func TestPowerLawDeterministic(t *testing.T) {
	a, err := PowerLaw(100, 2, DefaultLinkParams(), stream("same"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := PowerLaw(100, 2, DefaultLinkParams(), stream("same"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Edges() != b.Edges() {
		t.Fatalf("same seed produced %d vs %d edges", a.Edges(), b.Edges())
	}
	for u := 0; u < a.N; u++ {
		if a.Degree(u) != b.Degree(u) {
			t.Fatalf("degree of node %d differs: %d vs %d", u, a.Degree(u), b.Degree(u))
		}
	}
}

// TestPowerLawMExceedsN: an m far beyond n yields the seed clique on
// all n nodes; no buffer is sized by m.
func TestPowerLawMExceedsN(t *testing.T) {
	g, err := PowerLaw(5, 1<<50, DefaultLinkParams(), stream("big-m"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 10 || !g.Connected() {
		t.Fatalf("n=5, m=2^50: %d edges, want the 10 of a 5-clique", g.Edges())
	}
}

func TestPowerLawRejectsBadArgs(t *testing.T) {
	if _, err := PowerLaw(1, 2, DefaultLinkParams(), stream("x")); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := PowerLaw(10, 0, DefaultLinkParams(), stream("x")); err == nil {
		t.Error("m=0 accepted")
	}
	bad := DefaultLinkParams()
	bad.MinLatency = 0
	if _, err := PowerLaw(10, 2, bad, stream("x")); err == nil {
		t.Error("zero latency params accepted")
	}
}

func TestWaxmanConnectedAndSized(t *testing.T) {
	g, err := Waxman(150, 0.4, 0.2, DefaultLinkParams(), stream("wx"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 150 || !g.Connected() {
		t.Fatalf("Waxman: N=%d connected=%v", g.N, g.Connected())
	}
	if g.Edges() < g.N-1 {
		t.Fatalf("Waxman has %d edges, below spanning minimum", g.Edges())
	}
}

func TestWaxmanRejectsBadArgs(t *testing.T) {
	for _, c := range []struct{ a, b float64 }{{0, 0.5}, {0.5, 0}, {1.5, 0.5}, {0.5, 1.5}} {
		if _, err := Waxman(10, c.a, c.b, DefaultLinkParams(), stream("x")); err == nil {
			t.Errorf("Waxman(alpha=%v beta=%v) accepted", c.a, c.b)
		}
	}
	if _, err := Waxman(1, 0.5, 0.5, DefaultLinkParams(), stream("x")); err == nil {
		t.Error("Waxman n=1 accepted")
	}
}

func TestRingOfCliques(t *testing.T) {
	g, err := RingOfCliques(4, 5, DefaultLinkParams(), stream("rc"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 20 || !g.Connected() {
		t.Fatalf("RingOfCliques: N=%d connected=%v", g.N, g.Connected())
	}
	// 4 cliques of C(5,2)=10 edges plus 4 ring edges.
	if g.Edges() != 44 {
		t.Fatalf("edges = %d, want 44", g.Edges())
	}
}

func TestRingOfCliquesSingle(t *testing.T) {
	g, err := RingOfCliques(1, 3, DefaultLinkParams(), stream("rc1"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.Edges() != 3 || !g.Connected() {
		t.Fatalf("single clique wrong: N=%d E=%d", g.N, g.Edges())
	}
}

func TestRingOfCliquesRejectsBadArgs(t *testing.T) {
	if _, err := RingOfCliques(0, 3, DefaultLinkParams(), stream("x")); err == nil {
		t.Error("0 cliques accepted")
	}
	if _, err := RingOfCliques(3, 0, DefaultLinkParams(), stream("x")); err == nil {
		t.Error("clique size 0 accepted")
	}
}
