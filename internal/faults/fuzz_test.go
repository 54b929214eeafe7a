package faults

import (
	"fmt"
	"testing"
)

// FuzzParseCrashSpec feeds arbitrary strings to the -gcd-crash spec
// parser. It must not panic, a rejection must come with zero values, and
// whatever it accepts must name a known phase and a node id ≥ 0 and
// parse back to itself from its canonical "phase:node" form.
func FuzzParseCrashSpec(f *testing.F) {
	for _, s := range []string{"reduce:1", "build:0", "", ":", "reduce", "nope:1", "reduce:-1", "reduce:x", "build:1:2"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ph, node, err := ParseCrashSpec(s)
		if err != nil {
			if ph != "" || node != 0 {
				t.Fatalf("ParseCrashSpec(%q) rejected with %q, %d", s, ph, node)
			}
			return
		}
		if (ph != PhaseBuild && ph != PhaseReduce) || node < 0 {
			t.Fatalf("ParseCrashSpec(%q) accepted phase %q node %d", s, ph, node)
		}
		ph2, node2, err := ParseCrashSpec(fmt.Sprintf("%s:%d", ph, node))
		if err != nil || ph2 != ph || node2 != node {
			t.Fatalf("ParseCrashSpec(%q) = %q, %d does not round-trip: %q, %d, %v", s, ph, node, ph2, node2, err)
		}
	})
}

// FuzzParseStraggleSpec is the same contract for "phase:node:duration":
// an accepted duration is positive.
func FuzzParseStraggleSpec(f *testing.F) {
	for _, s := range []string{"build:2:200ms", "reduce:0:1h", "", "::", "build:1", "reduce:1:0s", "reduce:1:-5ms", "build:x:1s", "build:1:1s:2"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ph, node, d, err := ParseStraggleSpec(s)
		if err != nil {
			if ph != "" || node != 0 || d != 0 {
				t.Fatalf("ParseStraggleSpec(%q) rejected with %q, %d, %v", s, ph, node, d)
			}
			return
		}
		if (ph != PhaseBuild && ph != PhaseReduce) || node < 0 || d <= 0 {
			t.Fatalf("ParseStraggleSpec(%q) accepted phase %q node %d duration %v", s, ph, node, d)
		}
		ph2, node2, d2, err := ParseStraggleSpec(fmt.Sprintf("%s:%d:%s", ph, node, d))
		if err != nil || ph2 != ph || node2 != node || d2 != d {
			t.Fatalf("ParseStraggleSpec(%q) = %q, %d, %v does not round-trip: %q, %d, %v, %v", s, ph, node, d, ph2, node2, d2, err)
		}
	})
}
