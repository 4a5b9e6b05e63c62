package grid

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestFaultModelValidateNonFinite: range checks like f.ResourceMTBF < 0
// are false for NaN, so NaN (and the infinities) used to slip through
// validation and poison every downstream computation. Every float field
// must reject non-finite values explicitly.
func TestFaultModelValidateNonFinite(t *testing.T) {
	bads := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	set := []func(*FaultModel, float64){
		func(f *FaultModel, v float64) { f.ResourceMTBF = v },
		func(f *FaultModel, v float64) { f.RepairTime = v },
		func(f *FaultModel, v float64) { f.UpdateLossProb = v },
		func(f *FaultModel, v float64) { f.SchedulerMTBF = v },
		func(f *FaultModel, v float64) { f.SchedulerRepair = v },
		func(f *FaultModel, v float64) { f.EstimatorMTBF = v },
		func(f *FaultModel, v float64) { f.EstimatorRepair = v },
		func(f *FaultModel, v float64) { f.MsgLossProb = v },
		func(f *FaultModel, v float64) { f.LinkOutageMTBF = v },
		func(f *FaultModel, v float64) { f.LinkOutageDuration = v },
		func(f *FaultModel, v float64) { f.RetryTimeout = v },
	}
	for i, s := range set {
		for _, bad := range bads {
			var f FaultModel
			s(&f, bad)
			if err := f.Validate(); err == nil {
				t.Errorf("field %d: non-finite %v accepted", i, bad)
			} else if !strings.Contains(err.Error(), "finite") {
				t.Errorf("field %d: wrong error for %v: %v", i, bad, err)
			}
		}
	}
}

// TestEnablersValidateNonFinite covers the same hole in Enablers.
func TestEnablersValidateNonFinite(t *testing.T) {
	for _, mut := range []func(*Enablers){
		func(e *Enablers) { e.UpdateInterval = math.NaN() },
		func(e *Enablers) { e.LinkDelayScale = math.Inf(1) },
		func(e *Enablers) { e.VolunteerInterval = math.NaN() },
	} {
		e := DefaultEnablers()
		mut(&e)
		if err := e.Validate(); err == nil {
			t.Errorf("non-finite enabler accepted: %+v", e)
		}
	}
}

// TestFaultModelValidateRanges spot-checks the range rules on the new
// fault classes.
func TestFaultModelValidateRanges(t *testing.T) {
	for name, f := range map[string]FaultModel{
		"negative scheduler MTBF":  {SchedulerMTBF: -1},
		"crash without repair":     {SchedulerMTBF: 100},
		"estimator without repair": {EstimatorMTBF: 100},
		"loss prob of one":         {MsgLossProb: 1},
		"outage without duration":  {LinkOutageMTBF: 100},
		"negative retry timeout":   {RetryTimeout: -1},
		"negative retries":         {MaxRetries: -1},
		"huge retry budget":        {MaxRetries: 64},
	} {
		if err := f.Validate(); err == nil {
			t.Errorf("%s accepted: %+v", name, f)
		}
	}
	ok := FaultModel{
		SchedulerMTBF: 500, SchedulerRepair: 50,
		EstimatorMTBF: 500, EstimatorRepair: 50,
		MsgLossProb:    0.1,
		LinkOutageMTBF: 300, LinkOutageDuration: 20,
		RetryTimeout: 30, MaxRetries: 3,
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid fault model rejected: %v", err)
	}
	if !ok.Enabled() || !ok.protocolFaults() {
		t.Error("fully loaded fault model must report enabled")
	}
	var zero FaultModel
	if zero.Enabled() || zero.protocolFaults() {
		t.Error("zero fault model must report disabled")
	}
}

// TestConfigValidateRejectsNonFinite sets every float field reachable
// from Config — its own and those of its nested parameter structs — to
// NaN and to +Inf in turn. Range checks written "x <= 0" are false for
// NaN, and an infinite horizon or rate runs to the event budget, so
// Validate must reject each with an error naming the field.
func TestConfigValidateRejectsNonFinite(t *testing.T) {
	base := testConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	type field struct {
		path  string
		index []int
	}
	var fields []field
	var walk func(typ reflect.Type, path string, index []int)
	walk = func(typ reflect.Type, path string, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			sf := typ.Field(i)
			idx := append(append([]int(nil), index...), i)
			switch sf.Type.Kind() {
			case reflect.Float64:
				fields = append(fields, field{path + sf.Name, idx})
			case reflect.Struct:
				walk(sf.Type, path+sf.Name+".", idx)
			}
		}
	}
	walk(reflect.TypeOf(base), "", nil)
	if len(fields) < 50 {
		t.Fatalf("found only %d float fields: %v", len(fields), fields)
	}
	for _, f := range fields {
		name := f.path[strings.LastIndex(f.path, ".")+1:]
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			cfg := base
			reflect.ValueOf(&cfg).Elem().FieldByIndex(f.index).SetFloat(bad)
			err := cfg.Validate()
			if err == nil {
				t.Errorf("%s = %v accepted", f.path, bad)
			} else if !strings.Contains(err.Error(), name) {
				t.Errorf("%s = %v: error does not name the field: %v", f.path, bad, err)
			}
		}
	}
}
