package rms

import "testing"

// TestRosterNamesItsPolicies checks each roster row against the policy
// it builds: the row's name is the one the policy reports, so ByName
// finds what Names lists, and every row carries its description.
func TestRosterNamesItsPolicies(t *testing.T) {
	if n := len(Models()); n != 7 {
		t.Fatalf("the paper evaluates seven models; the roster holds %d", n)
	}
	for _, m := range Models() {
		if got := m.build().Name(); got != m.Name {
			t.Errorf("row %q builds a policy named %q", m.Name, got)
		}
		if m.Desc == "" {
			t.Errorf("row %q has no description", m.Name)
		}
	}
}
