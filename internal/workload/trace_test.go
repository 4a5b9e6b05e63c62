package workload

import (
	"bytes"
	"strings"
	"testing"
)

func sampleTrace(t *testing.T) *Trace {
	t.Helper()
	p := DefaultParams()
	p.Horizon = 500
	p.Clusters = 2
	tr, err := GenerateTrace(p, stream("trace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) == 0 {
		t.Fatal("empty trace")
	}
	return tr
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceJSON(&buf)
	if err != nil {
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

func TestReadTraceJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadTraceJSON(strings.NewReader("{broken")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadTraceJSONRejectsInvalidTrace(t *testing.T) {
	tr := sampleTrace(t)
	tr.Jobs[0].Runtime = -5 // corrupt
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTraceJSON(&buf); err == nil {
		t.Fatal("invalid trace accepted")
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
