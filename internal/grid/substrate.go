package grid

import (
	"fmt"
	"sync" //lint:allow nokernelgoroutines the mutexes guard the cross-run substrate and job-stream memos shared by parallel tuner workers; a substrate's topology and routes never change once built, its job memo only grows, and none of it carries sim-time state

	"rmscale/internal/routing"
	"rmscale/internal/sim"
	"rmscale/internal/topology"
	"rmscale/internal/workload"
)

// Substrate is the expensive, enabler-independent part of a simulation
// build: the topology graph, the grid role mapping, the routes the
// engine sends messages over, and the job streams. The scaling enablers
// (update interval, neighbourhood size, link delay scale, volunteering
// interval) affect none of it, so a tuner evaluating many enabler
// settings at the same scale factor can build the substrate once and
// share it across evaluations.
type Substrate struct {
	Graph *topology.Graph
	Map   *topology.Mapping

	// The routes the engine reads, all carved from one backing array:
	// schedToSched[c] and schedToRes[c] are scheduler c's rows over every
	// scheduler and every resource, estToSched[i] is estimator i's row
	// over the schedulers, and resToSched[r] and resToEst[r] are the
	// routes from resource r to its cluster's scheduler and to its
	// estimator (estimatorOf).
	schedToSched, schedToRes, estToSched [][]routing.Route
	resToSched, resToEst                 []routing.Route

	// jobs memoises the job stream per workload: it depends only on the
	// seed and the workload parameters.
	mu   sync.Mutex
	jobs map[workload.Params][]*workload.Job

	seed  int64
	nodes int
	m     int
	spec  topology.GridSpec
	links topology.LinkParams
}

// BuildSubstrate constructs the substrate for a config. It is
// deterministic in cfg.Seed and the structural fields of cfg.
func BuildSubstrate(cfg Config) (*Substrate, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	nodes := cfg.TopoNodes
	if nodes == 0 {
		nodes = cfg.Spec.Nodes() + cfg.Spec.Nodes()/5
	}
	m := cfg.TopoM
	if m == 0 {
		m = 2
	}
	src := sim.NewSource(cfg.Seed)
	g, err := topology.PowerLaw(nodes, m, cfg.Links, src.Stream("topo"))
	if err != nil {
		return nil, err
	}
	mp, err := topology.MapGrid(g, cfg.Spec, src.Stream("map"))
	if err != nil {
		return nil, err
	}
	s := &Substrate{
		Graph: g, Map: mp,
		jobs: make(map[workload.Params][]*workload.Job),
		seed: cfg.Seed, nodes: nodes, m: m, spec: cfg.Spec, links: cfg.Links,
	}
	if err := s.buildRoutes(); err != nil {
		return nil, err
	}
	return s, nil
}

// buildRoutes fills the route tables, one early-stopping query per
// endpoint over exactly the destinations the engine sends to.
func (s *Substrate) buildRoutes() error {
	mp := s.Map
	C, R, E := len(mp.SchedulerNode), len(mp.ResourceNode), len(mp.EstimatorNode)
	perRes := 1
	if E > 0 {
		perRes = 2
	}
	routes := make([]routing.Route, C*(C+R)+E*C+R*perRes)
	carve := func(n int) []routing.Route {
		row := routes[:n:n]
		routes = routes[n:]
		return row
	}
	router := routing.NewRouter(s.Graph)

	// A scheduler dispatches to any resource (Scheduler.Dispatch is
	// public), so its row spans the whole pool, not only its cluster.
	schedDsts := append(append([]int(nil), mp.SchedulerNode...), mp.ResourceNode...)
	s.schedToSched = make([][]routing.Route, C)
	s.schedToRes = make([][]routing.Route, C)
	for c, node := range mp.SchedulerNode {
		row := carve(C + R)
		if err := router.Routes(node, schedDsts, row); err != nil {
			return err
		}
		s.schedToSched[c], s.schedToRes[c] = row[:C:C], row[C:]
	}
	s.estToSched = make([][]routing.Route, E)
	for i, node := range mp.EstimatorNode {
		s.estToSched[i] = carve(C)
		if err := router.Routes(node, mp.SchedulerNode, s.estToSched[i]); err != nil {
			return err
		}
	}
	s.resToSched = carve(R)
	if E > 0 {
		s.resToEst = carve(R)
	}
	var dsts [2]int
	var out [2]routing.Route
	for r, node := range mp.ResourceNode {
		dsts[0] = mp.SchedulerNode[mp.ResourceCluster[r]]
		if E > 0 {
			dsts[1] = mp.EstimatorNode[estimatorOf(r, E)]
		}
		if err := router.Routes(node, dsts[:perRes], out[:]); err != nil {
			return err
		}
		s.resToSched[r] = out[0]
		if E > 0 {
			s.resToEst[r] = out[1]
		}
	}
	return nil
}

// estimatorOf is the estimator resource rid reports its status to:
// resources are dealt round-robin over the estimators.
func estimatorOf(rid, estimators int) int { return rid % estimators }

// jobStream returns the job stream for workload p, generating it on
// first use exactly as a fresh engine would: from the substrate seed's
// "workload" stream. Every engine built on the substrate shares the
// list, so no run may mutate a job (UseJobs copies).
func (s *Substrate) jobStream(p workload.Params) ([]*workload.Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if jobs, ok := s.jobs[p]; ok {
		return jobs, nil
	}
	jobs, err := workload.Generate(p, sim.NewSource(s.seed).Stream("workload"))
	if err != nil {
		return nil, err
	}
	s.jobs[p] = jobs
	return jobs, nil
}

// Matches reports whether the substrate was built for the structural
// part of cfg (after any central-policy collapse).
func (s *Substrate) Matches(cfg Config) bool {
	nodes := cfg.TopoNodes
	if nodes == 0 {
		nodes = cfg.Spec.Nodes() + cfg.Spec.Nodes()/5
	}
	m := cfg.TopoM
	if m == 0 {
		m = 2
	}
	return s.seed == cfg.Seed && s.nodes == nodes && s.m == m &&
		s.spec == cfg.Spec && s.links == cfg.Links
}

// SubstrateCache memoizes substrates keyed by their structural
// parameters. It is safe for concurrent use by parallel tuners.
type SubstrateCache struct {
	mu sync.Mutex
	m  map[string]*Substrate
}

// NewSubstrateCache returns an empty cache.
func NewSubstrateCache() *SubstrateCache {
	return &SubstrateCache{m: make(map[string]*Substrate)}
}

// Get returns the substrate for cfg, building it on first use.
func (c *SubstrateCache) Get(cfg Config) (*Substrate, error) {
	key := fmt.Sprintf("%d|%d|%d|%+v|%+v", cfg.Seed, cfg.TopoNodes, cfg.TopoM, cfg.Spec, cfg.Links)
	c.mu.Lock()
	s, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		return s, nil
	}
	s, err := BuildSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.m[key] = s
	c.mu.Unlock()
	return s, nil
}

// Len reports how many substrates are cached.
func (c *SubstrateCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
