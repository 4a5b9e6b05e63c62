package topology

import (
	"fmt"

	"rmscale/internal/sim"
)

// TransitStubParams configures the GT-ITM-style hierarchical generator:
// a ring-connected core of transit domains, each transit node anchoring
// a few stub domains — the other standard Internet model of the paper's
// era, complementing the flat power-law generator.
type TransitStubParams struct {
	// TransitDomains is the number of core domains (>= 1).
	TransitDomains int
	// TransitSize is the number of routers per transit domain (>= 1).
	TransitSize int
	// StubsPerTransitNode is how many stub domains hang off each
	// transit router (>= 0).
	StubsPerTransitNode int
	// StubSize is the number of routers per stub domain (>= 1).
	StubSize int
	// ExtraEdgeProb adds intra-domain shortcut edges with this
	// probability per node pair, giving path diversity.
	ExtraEdgeProb float64
}

// DefaultTransitStubParams yields a ~200-node three-level topology.
func DefaultTransitStubParams() TransitStubParams {
	return TransitStubParams{
		TransitDomains:      3,
		TransitSize:         4,
		StubsPerTransitNode: 2,
		StubSize:            8,
		ExtraEdgeProb:       0.15,
	}
}

// Nodes returns the total node count the parameters produce.
func (p TransitStubParams) Nodes() int {
	transit := p.TransitDomains * p.TransitSize
	return transit + transit*p.StubsPerTransitNode*p.StubSize
}

// Validate reports the first bad parameter.
func (p TransitStubParams) Validate() error {
	switch {
	case p.TransitDomains < 1:
		return fmt.Errorf("topology: TransitDomains must be >= 1, got %d", p.TransitDomains)
	case p.TransitSize < 1:
		return fmt.Errorf("topology: TransitSize must be >= 1, got %d", p.TransitSize)
	case p.StubsPerTransitNode < 0:
		return fmt.Errorf("topology: negative StubsPerTransitNode %d", p.StubsPerTransitNode)
	case p.StubsPerTransitNode > 0 && p.StubSize < 1:
		return fmt.Errorf("topology: StubSize must be >= 1 when stubs exist, got %d", p.StubSize)
	case p.StubSize < 0:
		return fmt.Errorf("topology: negative StubSize %d", p.StubSize)
	case p.ExtraEdgeProb < 0 || p.ExtraEdgeProb > 1:
		return fmt.Errorf("topology: ExtraEdgeProb %v outside [0,1]", p.ExtraEdgeProb)
	}
	return nil
}

// TransitStub generates the hierarchical topology. Transit links get
// the low end of the latency range and the high end of the bandwidth
// range (backbone links); stub links the opposite (edge links).
func TransitStub(p TransitStubParams, lp LinkParams, st *sim.Stream) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := lp.Validate(); err != nil {
		return nil, err
	}
	g := NewGraph(p.Nodes())
	midLat := (lp.MinLatency + lp.MaxLatency) / 2
	midBW := (lp.MinBandwidth + lp.MaxBandwidth) / 2
	backbone := func() (float64, float64) {
		return st.Uniform(lp.MinLatency, midLat), st.Uniform(midBW, lp.MaxBandwidth)
	}
	edge := func() (float64, float64) {
		return st.Uniform(midLat, lp.MaxLatency), st.Uniform(lp.MinBandwidth, midBW)
	}
	addEdge := func(u, v int, lat, bw float64) error {
		if u == v || g.HasEdge(u, v) {
			return nil
		}
		return g.AddEdge(u, v, lat, bw)
	}

	// Transit domains: ring inside each domain, domains joined in a
	// ring through their first routers.
	transitNode := func(d, i int) int { return d*p.TransitSize + i }
	for d := 0; d < p.TransitDomains; d++ {
		for i := 0; i < p.TransitSize; i++ {
			lat, bw := backbone()
			if p.TransitSize > 1 {
				if err := addEdge(transitNode(d, i), transitNode(d, (i+1)%p.TransitSize), lat, bw); err != nil {
					return nil, err
				}
			}
			// Shortcuts.
			for j := i + 2; j < p.TransitSize; j++ {
				if st.Bool(p.ExtraEdgeProb) {
					lat, bw := backbone()
					if err := addEdge(transitNode(d, i), transitNode(d, j), lat, bw); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	for d := 0; d < p.TransitDomains && p.TransitDomains > 1; d++ {
		lat, bw := backbone()
		if err := addEdge(transitNode(d, 0), transitNode((d+1)%p.TransitDomains, 0), lat, bw); err != nil {
			return nil, err
		}
	}

	// Stub domains: a chain per stub with shortcuts, anchored to its
	// transit router.
	next := p.TransitDomains * p.TransitSize
	for d := 0; d < p.TransitDomains; d++ {
		for i := 0; i < p.TransitSize; i++ {
			anchor := transitNode(d, i)
			for s := 0; s < p.StubsPerTransitNode; s++ {
				base := next
				next += p.StubSize
				for n := 0; n < p.StubSize; n++ {
					lat, bw := edge()
					if n == 0 {
						if err := addEdge(anchor, base, lat, bw); err != nil {
							return nil, err
						}
					} else {
						if err := addEdge(base+n-1, base+n, lat, bw); err != nil {
							return nil, err
						}
					}
					for m := n + 2; m < p.StubSize; m++ {
						if st.Bool(p.ExtraEdgeProb) {
							lat, bw := edge()
							if err := addEdge(base+n, base+m, lat, bw); err != nil {
								return nil, err
							}
						}
					}
				}
			}
		}
	}
	return g, nil
}
