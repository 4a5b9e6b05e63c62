package workload

import (
	"fmt"
	"sort"
)

// Trace bundles a generated job stream with the parameters that produced
// it, so experiments can be replayed bit-exactly from disk.
type Trace struct {
	Params Params `json:"params"`
	Jobs   []*Job `json:"jobs"`
}

// Validate checks trace invariants: sorted arrivals within the horizon,
// positive runtimes, requested >= runtime, consistent classification,
// benefit within bounds, and cluster ids in range.
//
//lint:allow deadcode property-test oracle: TestGenerateInvariantProperty checks every generated trace against it
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
