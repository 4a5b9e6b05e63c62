package service

import (
	"fmt"
	"math"
	"strings"

	"rmscale/internal/experiments"
	"rmscale/internal/rms"
	"rmscale/internal/runner"
)

// specVersion guards the content-address format: any change to the
// spec struct or to what an execution means must bump it, so results
// from incompatible generations can never collide in the store.
const specVersion = "rmscaled-spec/v1"

// Spec kinds.
const (
	// KindSim runs one grid simulation (model, seed, optional horizon)
	// and stores its Summary. It is the cheap, thousand-at-a-time
	// object of the load harness.
	KindSim = "sim"
	// KindCase runs one of the paper's four experiment cases through
	// the measurement procedure (the full tuned G(k) curve per model).
	KindCase = "case"
	// KindChurn runs a case fault-free and again under the fixed churn
	// fault load (the degraded-mode experiment).
	KindChurn = "churn"
)

// ExperimentSpec is the unit of work a client submits to rmscaled. It
// is pure data: every field is part of the canonical content address,
// so two clients submitting byte-equal specs share one execution and
// one stored result. Fields that do not apply to a kind must stay at
// their zero value — a stray field would silently split the address of
// otherwise identical work, so Validate rejects it.
type ExperimentSpec struct {
	// Kind selects what an execution does: "sim", "case" or "churn".
	Kind string `json:"kind"`
	// Seed is the master random seed (all kinds).
	Seed int64 `json:"seed"`

	// Model names the RMS model of a "sim" run (e.g. "LOWEST").
	Model string `json:"model,omitempty"`
	// Horizon, when positive, overrides the simulated duration of a
	// "sim" run; 0 means the default grid horizon.
	Horizon float64 `json:"horizon,omitempty"`

	// Case is the experiment case (1-4) of a "case" or "churn" run.
	Case int `json:"case,omitempty"`
	// Fidelity is the runtime budget of a "case" or "churn" run:
	// "smoke", "quick" or "full".
	Fidelity string `json:"fidelity,omitempty"`
}

// Validate reports the first invalid field. Every message carries the
// offending value, so a rejected submission can be fixed from the
// error alone.
func (s ExperimentSpec) Validate() error {
	switch s.Kind {
	case KindSim:
		if _, err := rms.ByName(s.Model); err != nil {
			return fmt.Errorf("service: sim spec model %q: want one of %s",
				s.Model, strings.Join(rms.Names(), ", "))
		}
		if math.IsNaN(s.Horizon) || math.IsInf(s.Horizon, 0) || s.Horizon < 0 {
			return fmt.Errorf("service: sim spec horizon %v: must be finite and >= 0", s.Horizon)
		}
		if s.Case != 0 {
			return fmt.Errorf("service: sim spec sets case=%d; case applies to kind %q or %q only",
				s.Case, KindCase, KindChurn)
		}
		if s.Fidelity != "" {
			return fmt.Errorf("service: sim spec sets fidelity=%q; fidelity applies to kind %q or %q only",
				s.Fidelity, KindCase, KindChurn)
		}
	case KindCase, KindChurn:
		if s.Case < 1 || s.Case > 4 {
			return fmt.Errorf("service: %s spec case %d: want 1..4", s.Kind, s.Case)
		}
		if _, err := experiments.ParseFidelity(s.Fidelity); err != nil {
			return fmt.Errorf("service: %s spec fidelity %q: want smoke, quick or full", s.Kind, s.Fidelity)
		}
		if s.Model != "" {
			return fmt.Errorf("service: %s spec sets model=%q; model applies to kind %q only",
				s.Kind, s.Model, KindSim)
		}
		if s.Horizon != 0 {
			return fmt.Errorf("service: %s spec sets horizon=%v; horizon applies to kind %q only",
				s.Kind, s.Horizon, KindSim)
		}
	default:
		return fmt.Errorf("service: unknown spec kind %q: want %q, %q or %q",
			s.Kind, KindSim, KindCase, KindChurn)
	}
	return nil
}

// String renders the spec canonically, one field per token in
// declaration order — the human-readable twin of the content address,
// for log lines and hash-mismatch diagnostics.
func (s ExperimentSpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec{kind=%s seed=%d", s.Kind, s.Seed)
	if s.Model != "" {
		fmt.Fprintf(&b, " model=%s", s.Model)
	}
	if s.Horizon != 0 {
		fmt.Fprintf(&b, " horizon=%g", s.Horizon)
	}
	if s.Case != 0 {
		fmt.Fprintf(&b, " case=%d", s.Case)
	}
	if s.Fidelity != "" {
		fmt.Fprintf(&b, " fidelity=%s", s.Fidelity)
	}
	b.WriteString("}")
	return b.String()
}

// ID derives the spec's deterministic content address: the SHA-256 of
// the canonical encoding of (specVersion, spec), rendered as lowercase
// hex. Identical specs always map to the same experiment ID, which is
// what makes submission idempotent and results shareable across
// clients.
func (s ExperimentSpec) ID() (string, error) {
	k, err := runner.KeyOf(specVersion, s)
	if err != nil {
		return "", fmt.Errorf("service: addressing %s: %w", s, err)
	}
	return k.String(), nil
}

// SpecAt derives the j-th spec of the rotation the load and chaos
// harnesses submit: models cycle through the paper's roster, seeds
// advance from seed, and every run simulates horizon.
func SpecAt(seed int64, horizon float64, j int) ExperimentSpec {
	names := rms.Names()
	return ExperimentSpec{
		Kind:    KindSim,
		Model:   names[j%len(names)],
		Seed:    seed + int64(j),
		Horizon: horizon,
	}
}
