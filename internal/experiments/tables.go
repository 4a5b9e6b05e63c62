package experiments

import (
	"fmt"
	"io"

	"rmscale/internal/grid"
	"rmscale/internal/rms"
	"rmscale/internal/workload"
)

// CommonConstants reproduces Table 1: the list of common variables and
// values used for all experiments.
type CommonConstants struct {
	TCPU          float64
	ThresholdLoad float64
	BenefitMin    float64
	BenefitMax    float64
}

// PaperConstants returns the Table 1 values.
func PaperConstants() CommonConstants {
	w := workload.DefaultParams()
	p := grid.DefaultProtocol()
	return CommonConstants{
		TCPU:          w.TCPU,
		ThresholdLoad: p.ThresholdLoad,
		BenefitMin:    w.BenefitMin,
		BenefitMax:    w.BenefitMax,
	}
}

// WriteTable1 renders Table 1.
func (c CommonConstants) WriteTable1(w io.Writer) error {
	_, err := fmt.Fprintf(w, `Table 1: common variables used for all experiments
  T_CPU       %.0f time units   jobs with execution time <= T_CPU are LOCAL, else REMOTE
  T_l         %.1f              threshold load at a scheduler
  U_b(jobid)  k x run time      user benefit function, k uniform in [%.0f, %.0f]
`, c.TCPU, c.ThresholdLoad, c.BenefitMin, c.BenefitMax)
	return err
}

// WriteScalingTables renders Tables 2-5: the scaling variables and
// scaling enablers of each case.
func WriteScalingTables(w io.Writer) error {
	_, err := fmt.Fprint(w, `Table 2 (Case 1): scaling the RP by network size
  scaling variables: network size (nodes = sizeof[RMS] + sizeof[RP]); workload
  scaling enablers:  status update interval; neighborhood set size; network link delay

Table 3 (Case 2): scaling the RP by resource service rate
  scaling variables: resource service rate; workload
  scaling enablers:  status update interval; neighborhood set size; network link delay

Table 4 (Case 3): scaling the RMS by number of status estimators
  scaling variables: number of status estimators; workload
  scaling enablers:  status update interval; neighborhood set size; network link delay

Table 5 (Case 4): scaling the RMS by L_p
  scaling variables: L_p (neighbor schedulers contacted); workload
  scaling enablers:  status update interval; interval for resource volunteering; network link delay
`)
	return err
}

// WriteModelRoster renders the seven evaluated models with the
// paper's Section 3.3 one-line protocol descriptions, read from the
// roster table that also builds and names them.
func WriteModelRoster(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "Models (Section 3.3):"); err != nil {
		return err
	}
	for _, m := range rms.Models() {
		if _, err := fmt.Fprintf(w, "  %-8s %s\n", m.Name, m.Desc); err != nil {
			return err
		}
	}
	return nil
}
