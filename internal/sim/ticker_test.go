package sim

import (
	"reflect"
	"testing"
)

func TestTickerFiresEveryPeriod(t *testing.T) {
	k := NewKernel()
	var got []Time
	NewTicker(k, 3, func() { got = append(got, k.Now()) })
	k.Run(10)
	if !reflect.DeepEqual(got, []Time{3, 6, 9}) {
		t.Fatalf("ticks at %v, want [3 6 9]", got)
	}
}

// TestTickerNonPositivePeriodIsDisabled: a ticker created with a zero
// or negative period is off. It never fires and adds nothing to the
// pending events.
func TestTickerNonPositivePeriodIsDisabled(t *testing.T) {
	for _, period := range []Time{0, -1} {
		k := NewKernel()
		NewTicker(k, period, func() { t.Fatalf("period-%v ticker fired", period) })
		if n := pending(k); n != 0 {
			t.Fatalf("period-%v ticker left %d pending events", period, n)
		}
		k.Run(100)
		if k.Processed() != 0 {
			t.Fatalf("period-%v ticker processed %d events", period, k.Processed())
		}
	}
}
