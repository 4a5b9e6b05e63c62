package workload

import (
	"bytes"
	"encoding/json"
	"testing"
)

func sampleTrace(t *testing.T) *Trace {
	t.Helper()
	p := DefaultParams()
	p.Horizon = 500
	p.Clusters = 2
	jobs, err := Generate(p, stream("trace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		t.Fatal("empty trace")
	}
	return &Trace{Params: p, Jobs: jobs}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Trace
	if err := json.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(tr.Jobs) {
		t.Fatalf("round trip job count %d != %d", len(got.Jobs), len(tr.Jobs))
	}
	if !got.Jobs[0].Equal(tr.Jobs[0]) {
		t.Fatalf("first job differs: %+v vs %+v", got.Jobs[0], tr.Jobs[0])
	}
	if got.Params != tr.Params {
		t.Fatal("params lost in round trip")
	}
}

func TestTraceValidateCatchesCorruption(t *testing.T) {
	corruptions := []func(*Trace){
		func(tr *Trace) { tr.Jobs[1].Arrival = tr.Jobs[0].Arrival - 1 }, // unsorted... may still be >= 0
		func(tr *Trace) { tr.Jobs[0].Arrival = tr.Params.Horizon + 1 },
		func(tr *Trace) { tr.Jobs[0].Requested = tr.Jobs[0].Runtime / 2 },
		func(tr *Trace) { tr.Jobs[0].Benefit = 99 },
		func(tr *Trace) { tr.Jobs[0].Cluster = 99 },
		func(tr *Trace) { tr.Jobs[0].Partition = 2 },
		func(tr *Trace) {
			tr.Jobs[0].Runtime = tr.Params.TCPU + 1
			tr.Jobs[0].Requested = 3 * tr.Jobs[0].Runtime
			tr.Jobs[0].Class = Local
		},
	}
	for i, corrupt := range corruptions {
		tr := sampleTrace(t)
		if len(tr.Jobs) < 2 {
			t.Skip("need at least 2 jobs")
		}
		corrupt(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("corruption %d passed validation", i)
		}
	}
}

func TestTraceValidateAcceptsClean(t *testing.T) {
	if err := sampleTrace(t).Validate(); err != nil {
		t.Fatal(err)
	}
}
