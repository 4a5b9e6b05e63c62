package topology

import (
	"fmt"

	"rmscale/internal/sim"
)

// Role labels what grid element a topology node hosts, mirroring the
// paper's mapping of "routers, schedulers, and resources" onto Mercator
// extractions.
type Role uint8

const (
	RoleRouter Role = iota
	RoleScheduler
	RoleResource
	RoleEstimator
)

// String returns the lowercase role name.
func (r Role) String() string {
	switch r {
	case RoleRouter:
		return "router"
	case RoleScheduler:
		return "scheduler"
	case RoleResource:
		return "resource"
	case RoleEstimator:
		return "estimator"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// GridSpec describes the managed system to be mapped onto a graph: the
// set of resources is divided into non-overlapping clusters, each
// coordinated by one scheduler, plus an optional layer of status
// estimators (Case 3 of the paper).
type GridSpec struct {
	Clusters    int // number of non-overlapping clusters (schedulers)
	ClusterSize int // resources per cluster
	Estimators  int // status estimator nodes; 0 disables the layer
}

// Nodes returns how many grid (non-router) nodes the spec needs.
func (s GridSpec) Nodes() int {
	return s.Clusters + s.Clusters*s.ClusterSize + s.Estimators
}

// Validate checks the spec for structural sanity.
func (s GridSpec) Validate() error {
	if s.Clusters < 1 {
		return fmt.Errorf("topology: spec needs at least one cluster, got %d", s.Clusters)
	}
	if s.ClusterSize < 1 {
		return fmt.Errorf("topology: spec needs at least one resource per cluster, got %d", s.ClusterSize)
	}
	if s.Estimators < 0 {
		return fmt.Errorf("topology: negative estimator count %d", s.Estimators)
	}
	return nil
}

// Mapping records which graph node hosts which grid element.
type Mapping struct {
	Spec GridSpec
	// Roles[node] is the role hosted at that node.
	Roles []Role
	// SchedulerNode[c] is the graph node of cluster c's scheduler.
	SchedulerNode []int
	// ResourceNode[r] is the graph node of resource r; resources are
	// numbered densely across clusters.
	ResourceNode []int
	// ResourceCluster[r] is the cluster owning resource r.
	ResourceCluster []int
	// ClusterResources[c] lists the resource ids in cluster c.
	ClusterResources [][]int
	// EstimatorNode[e] is the graph node of estimator e (may be empty).
	EstimatorNode []int
}

// MapGrid assigns grid roles to graph nodes. Scheduler nodes are spread
// across the graph (chosen among the highest-degree nodes, like placing
// coordinators at well-connected routers); each cluster's resources are
// placed on the unoccupied nodes nearest its scheduler in BFS order, so
// clusters are topologically local as in the paper's grid model.
// Estimators take high-degree unoccupied nodes. Remaining nodes stay
// pure routers.
func MapGrid(g *Graph, spec GridSpec, st *sim.Stream) (*Mapping, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Nodes() > g.N {
		return nil, fmt.Errorf("topology: spec needs %d nodes but graph has %d", spec.Nodes(), g.N)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("topology: cannot map onto a disconnected graph")
	}

	m := &Mapping{
		Spec:             spec,
		Roles:            make([]Role, g.N),
		SchedulerNode:    make([]int, spec.Clusters),
		ClusterResources: make([][]int, spec.Clusters),
	}
	taken := make([]bool, g.N)

	// Order nodes by degree descending with a random tie-break so two
	// seeds give different but valid placements.
	order := st.Perm(g.N)
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && g.Degree(order[j]) > g.Degree(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	// Schedulers: spread them out by skipping neighbours of already
	// chosen schedulers while possible.
	chosen := 0
	for pass := 0; pass < 2 && chosen < spec.Clusters; pass++ {
		for _, u := range order {
			if chosen == spec.Clusters {
				break
			}
			if taken[u] {
				continue
			}
			if pass == 0 {
				adjacent := false
				for _, e := range g.Adj[u] {
					if taken[e.To] && m.Roles[e.To] == RoleScheduler {
						adjacent = true
						break
					}
				}
				if adjacent {
					continue
				}
			}
			m.SchedulerNode[chosen] = u
			m.Roles[u] = RoleScheduler
			taken[u] = true
			chosen++
		}
	}
	if chosen < spec.Clusters {
		return nil, fmt.Errorf("topology: placed only %d of %d schedulers", chosen, spec.Clusters)
	}

	// Estimators next, on the best-connected free nodes.
	for e := 0; e < spec.Estimators; e++ {
		placed := false
		for _, u := range order {
			if !taken[u] {
				m.EstimatorNode = append(m.EstimatorNode, u)
				m.Roles[u] = RoleEstimator
				taken[u] = true
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("topology: no free node for estimator %d", e)
		}
	}

	// Resources: BFS from each scheduler, claiming the nearest free
	// nodes; round-robin across clusters keeps them balanced when
	// BFS frontiers collide.
	frontiers := make([][]int, spec.Clusters)
	cursor := make([]int, spec.Clusters)
	for c := 0; c < spec.Clusters; c++ {
		frontiers[c] = g.BFSOrder(m.SchedulerNode[c])
	}
	total := spec.Clusters * spec.ClusterSize
	rid := 0
	for placedAll := 0; placedAll < total; {
		progress := false
		for c := 0; c < spec.Clusters && placedAll < total; c++ {
			if len(m.ClusterResources[c]) == spec.ClusterSize {
				continue
			}
			for cursor[c] < len(frontiers[c]) {
				u := frontiers[c][cursor[c]]
				cursor[c]++
				if taken[u] {
					continue
				}
				taken[u] = true
				m.Roles[u] = RoleResource
				m.ResourceNode = append(m.ResourceNode, u)
				m.ResourceCluster = append(m.ResourceCluster, c)
				m.ClusterResources[c] = append(m.ClusterResources[c], rid)
				rid++
				placedAll++
				progress = true
				break
			}
		}
		if !progress {
			return nil, fmt.Errorf("topology: ran out of nodes placing resources (%d placed of %d)", rid, total)
		}
	}
	return m, nil
}

// Resources returns the total number of resources in the mapping.
func (m *Mapping) Resources() int { return len(m.ResourceNode) }

// Validate checks the structural invariants of a mapping: disjoint
// roles, complete clusters, and consistent cross-references.
//
//lint:allow deadcode property-test oracle: TestMapGridProperty checks every generated mapping against it
func (m *Mapping) Validate(g *Graph) error {
	if len(m.Roles) != g.N {
		return fmt.Errorf("topology: mapping covers %d nodes, graph has %d", len(m.Roles), g.N)
	}
	if len(m.SchedulerNode) != m.Spec.Clusters {
		return fmt.Errorf("topology: %d scheduler nodes for %d clusters", len(m.SchedulerNode), m.Spec.Clusters)
	}
	if m.Resources() != m.Spec.Clusters*m.Spec.ClusterSize {
		return fmt.Errorf("topology: %d resources, want %d", m.Resources(), m.Spec.Clusters*m.Spec.ClusterSize)
	}
	if len(m.EstimatorNode) != m.Spec.Estimators {
		return fmt.Errorf("topology: %d estimators, want %d", len(m.EstimatorNode), m.Spec.Estimators)
	}
	seen := make(map[int]Role, g.N)
	claim := func(node int, role Role) error {
		if node < 0 || node >= g.N {
			return fmt.Errorf("topology: node %d out of range", node)
		}
		if prev, dup := seen[node]; dup {
			return fmt.Errorf("topology: node %d claimed as both %v and %v", node, prev, role)
		}
		if m.Roles[node] != role {
			return fmt.Errorf("topology: node %d role is %v, index says %v", node, m.Roles[node], role)
		}
		seen[node] = role
		return nil
	}
	for _, u := range m.SchedulerNode {
		if err := claim(u, RoleScheduler); err != nil {
			return err
		}
	}
	for _, u := range m.ResourceNode {
		if err := claim(u, RoleResource); err != nil {
			return err
		}
	}
	for _, u := range m.EstimatorNode {
		if err := claim(u, RoleEstimator); err != nil {
			return err
		}
	}
	for c, rs := range m.ClusterResources {
		if len(rs) != m.Spec.ClusterSize {
			return fmt.Errorf("topology: cluster %d has %d resources, want %d", c, len(rs), m.Spec.ClusterSize)
		}
		for _, r := range rs {
			if m.ResourceCluster[r] != c {
				return fmt.Errorf("topology: resource %d cross-reference mismatch", r)
			}
		}
	}
	return nil
}
