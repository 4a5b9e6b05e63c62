package stats

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleSet() *SeriesSet {
	ss := &SeriesSet{Title: "Figure X", XLabel: "k", YLabel: "g(k)"}
	ss.Add(Series{Name: "CENTRAL", X: []float64{1, 2, 3}, Y: []float64{1, 4, 9}})
	ss.Add(Series{Name: "LOWEST", X: []float64{1, 2, 3}, Y: []float64{1, 1.5, 2}})
	return ss
}

func TestSeriesAppendAndLen(t *testing.T) {
	s := Series{X: []float64{1, 2}, Y: []float64{10, 20}}
	if s.Len() != 2 || s.X[1] != 2 || s.Y[1] != 20 {
		t.Fatalf("unexpected series state: %+v", s)
	}
}

// TestSeriesNormalized: a series' Y normalized as the paper's g(k)
// curves are, leaving the series itself untouched.
func TestSeriesNormalized(t *testing.T) {
	s := Series{Name: "m", X: []float64{1, 2}, Y: []float64{5, 15}}
	n := Normalize(s.Y)
	if n[0] != 1 || n[1] != 3 {
		t.Fatalf("normalized Y = %v", n)
	}
	if s.Y[0] != 5 {
		t.Fatal("Normalize mutated the series")
	}
}

func TestSeriesSlopes(t *testing.T) {
	s := Series{X: []float64{1, 2, 3}, Y: []float64{0, 2, 6}}
	sl := Slopes(s.X, s.Y)
	if len(sl) != 2 || sl[0] != 2 || sl[1] != 4 {
		t.Fatalf("Slopes = %v", sl)
	}
}

func TestSeriesSetGetAndNames(t *testing.T) {
	names := sampleSet().Names()
	if len(names) != 2 || names[0] != "CENTRAL" || names[1] != "LOWEST" {
		t.Fatalf("Names = %v", names)
	}
}

func TestWriteTable(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleSet().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure X", "CENTRAL", "LOWEST", "k"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + header + 3 rows
		t.Fatalf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestWriteTableEmpty(t *testing.T) {
	var buf bytes.Buffer
	ss := &SeriesSet{Title: "empty"}
	if err := ss.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no series") {
		t.Fatalf("empty table output: %q", buf.String())
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleSet().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "k,CENTRAL,LOWEST" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if lines[1] != "1,1,1" {
		t.Fatalf("CSV row = %q", lines[1])
	}
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want 4", len(lines))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	ss := sampleSet()
	if err := ss.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := new(SeriesSet)
	if err := json.NewDecoder(&buf).Decode(got); err != nil {
		t.Fatal(err)
	}
	if got.Title != ss.Title || len(got.Series) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Series[0].Y[2] != 9 {
		t.Fatalf("round trip Y = %v", got.Series[0].Y)
	}
}

func TestRankByFinalY(t *testing.T) {
	ss := sampleSet()
	ss.Add(Series{Name: "EMPTY"})
	rank := ss.RankByFinalY()
	if len(rank) != 2 || rank[0] != "LOWEST" || rank[1] != "CENTRAL" {
		t.Fatalf("RankByFinalY = %v", rank)
	}
}
