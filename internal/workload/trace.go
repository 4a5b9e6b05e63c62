package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"rmscale/internal/sim"
)

// Trace bundles a generated job stream with the parameters that produced
// it, so experiments can be replayed bit-exactly from disk.
type Trace struct {
	Params Params `json:"params"`
	Jobs   []*Job `json:"jobs"`
}

// GenerateTrace generates jobs under p and wraps them in a Trace.
func GenerateTrace(p Params, st *sim.Stream) (*Trace, error) {
	jobs, err := Generate(p, st)
	if err != nil {
		return nil, err
	}
	return &Trace{Params: p, Jobs: jobs}, nil
}

// WriteJSON serializes the trace as JSON.
func (tr *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// ReadTraceJSON parses a JSON trace and validates its invariants.
func ReadTraceJSON(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("workload: decode trace: %w", err)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &tr, nil
}

// Validate checks trace invariants: sorted arrivals within the horizon,
// positive runtimes, requested >= runtime, consistent classification,
// benefit within bounds, and cluster ids in range.
func (tr *Trace) Validate() error {
	if err := tr.Params.Validate(); err != nil {
		return err
	}
	if !sort.SliceIsSorted(tr.Jobs, func(i, j int) bool {
		return tr.Jobs[i].Arrival < tr.Jobs[j].Arrival
	}) {
		return fmt.Errorf("workload: trace arrivals out of order")
	}
	for _, j := range tr.Jobs {
		switch {
		case j.Arrival < 0 || j.Arrival >= tr.Params.Horizon:
			return fmt.Errorf("workload: job %d arrival %v outside [0,%v)", j.ID, j.Arrival, tr.Params.Horizon)
		case j.Runtime < tr.Params.RuntimeMin || j.Runtime > tr.Params.RuntimeMax:
			return fmt.Errorf("workload: job %d runtime %v outside range", j.ID, j.Runtime)
		case j.Requested < j.Runtime:
			return fmt.Errorf("workload: job %d requested %v < runtime %v", j.ID, j.Requested, j.Runtime)
		case j.Benefit < tr.Params.BenefitMin || j.Benefit > tr.Params.BenefitMax:
			return fmt.Errorf("workload: job %d benefit %v outside range", j.ID, j.Benefit)
		case j.Cluster < 0 || j.Cluster >= tr.Params.Clusters:
			return fmt.Errorf("workload: job %d cluster %d outside [0,%d)", j.ID, j.Cluster, tr.Params.Clusters)
		case j.Partition != 1:
			return fmt.Errorf("workload: job %d partition %d, paper model uses 1", j.ID, j.Partition)
		case (j.Runtime <= tr.Params.TCPU) != (j.Class == Local):
			return fmt.Errorf("workload: job %d misclassified as %v with runtime %v", j.ID, j.Class, j.Runtime)
		}
	}
	return nil
}
