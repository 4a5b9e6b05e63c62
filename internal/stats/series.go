package stats

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Series is a named curve y(x), the unit the experiment harness emits for
// every figure in the paper (e.g. the G(k) curve of one RMS model).
type Series struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// Append adds one point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// Normalized returns a copy of the series with Y divided by Y[0],
// matching the paper's normalized overhead curves g(k).
func (s *Series) Normalized() Series {
	return Series{Name: s.Name, X: append([]float64(nil), s.X...), Y: Normalize(s.Y)}
}

// Slopes returns the per-segment slopes of the curve.
func (s *Series) Slopes() []float64 { return Slopes(s.X, s.Y) }

// SeriesSet is a group of curves sharing an X axis — one figure.
type SeriesSet struct {
	Title  string   `json:"title"`
	XLabel string   `json:"xlabel"`
	YLabel string   `json:"ylabel"`
	Series []Series `json:"series"`
}

// Add appends a curve to the set.
func (ss *SeriesSet) Add(s Series) { ss.Series = append(ss.Series, s) }

// Get returns the curve with the given name, or nil.
func (ss *SeriesSet) Get(name string) *Series {
	for i := range ss.Series {
		if ss.Series[i].Name == name {
			return &ss.Series[i]
		}
	}
	return nil
}

// Names returns the curve names in insertion order.
func (ss *SeriesSet) Names() []string {
	out := make([]string, len(ss.Series))
	for i := range ss.Series {
		out[i] = ss.Series[i].Name
	}
	return out
}

// WriteTable renders the set as an aligned text table with one row per X
// value and one column per series, the way the paper's figures read.
func (ss *SeriesSet) WriteTable(w io.Writer) error {
	if len(ss.Series) == 0 {
		_, err := fmt.Fprintf(w, "%s\n(no series)\n", ss.Title)
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", ss.Title)
	fmt.Fprintf(&b, "%-8s", ss.XLabel)
	for _, s := range ss.Series {
		fmt.Fprintf(&b, " %12s", s.Name)
	}
	b.WriteByte('\n')
	for i, x := range ss.Series[0].X {
		fmt.Fprintf(&b, "%-8.3g", x)
		for _, s := range ss.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, " %12.4g", s.Y[i])
			} else {
				fmt.Fprintf(&b, " %12s", "-")
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the set as CSV: header x,<name>,... then rows.
func (ss *SeriesSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{ss.XLabel}, ss.Names()...)
	if err := cw.Write(header); err != nil {
		return err
	}
	if len(ss.Series) > 0 {
		for i, x := range ss.Series[0].X {
			row := []string{strconv.FormatFloat(x, 'g', -1, 64)}
			for _, s := range ss.Series {
				if i < len(s.Y) {
					row = append(row, strconv.FormatFloat(s.Y[i], 'g', -1, 64))
				} else {
					row = append(row, "")
				}
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON renders the set as indented JSON.
func (ss *SeriesSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ss)
}

// RankByFinalY returns series names ordered by their final Y value,
// smallest first. For normalized G(k) curves this ranks models from most
// to least scalable, the comparison the paper draws from each figure.
func (ss *SeriesSet) RankByFinalY() []string {
	type kv struct {
		name string
		y    float64
	}
	var items []kv
	for _, s := range ss.Series {
		if len(s.Y) == 0 {
			continue
		}
		items = append(items, kv{s.Name, s.Y[len(s.Y)-1]})
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].y < items[j].y })
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.name
	}
	return out
}
