package core

import (
	"context"
	"sort"
	"strings"
	"testing"

	"github.com/factorable/weakkeys/internal/faults"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// chaosOpts is a small, fast study configuration shared by the chaos
// tests; each test overlays its own fault plan.
func chaosOpts() Options {
	return Options{Seed: 7, KeyBits: 128, Scale: 0.1, Subsets: 3}
}

// vulnSet is the study's vulnerable-moduli outcome in canonical form.
func vulnSet(s *Study) string {
	keys := make([]string, 0, len(s.Fingerprint.Factors))
	for k := range s.Fingerprint.Factors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestChaosStudyMatchesFaultFree is the E2E acceptance for the GCD half
// of the fault plan: a full study with a cluster node crashing
// mid-reduce must emit exactly the vulnerable-moduli set the fault-free
// study does, with the recovery visible in the telemetry registry.
func TestChaosStudyMatchesFaultFree(t *testing.T) {
	clean, err := Run(context.Background(), chaosOpts())
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	opts := chaosOpts()
	opts.GCDFaults = faults.NewNodePlan().
		Crash(1, faults.PhaseReduce).
		Crash(2, faults.PhaseBuild)
	opts.Telemetry = reg
	chaos, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("study with recoverable node crashes failed: %v", err)
	}
	if chaos.GCDPartial != nil {
		t.Fatalf("recoverable crashes left partial results: %v", chaos.GCDPartial)
	}
	if vulnSet(chaos) != vulnSet(clean) {
		t.Errorf("chaos study vulnerable set (%d moduli) differs from fault-free (%d)",
			len(chaos.Fingerprint.Factors), len(clean.Fingerprint.Factors))
	}
	if chaos.GCDStats.Reassigned != 2 {
		t.Errorf("GCDStats.Reassigned = %d, want 2", chaos.GCDStats.Reassigned)
	}
	if v := reg.CounterValue("distgcd_node_reassignments_total"); v != 2 {
		t.Errorf("distgcd_node_reassignments_total = %d, want 2", v)
	}
	if v := reg.CounterValue("distgcd_node_failures_total"); v != 2 {
		t.Errorf("distgcd_node_failures_total = %d, want 2", v)
	}
}

// TestChaosStudyDegradesToPartial verifies graceful degradation end to
// end: with reassignment disabled, a node crash loses its subset but
// the pipeline still completes, reporting what is missing.
func TestChaosStudyDegradesToPartial(t *testing.T) {
	clean, err := Run(context.Background(), chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := chaosOpts()
	opts.GCDFaults = faults.NewNodePlan().Crash(0, faults.PhaseReduce)
	opts.GCDMaxReassign = -1
	partial, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("partial GCD must not fail the pipeline: %v", err)
	}
	if partial.GCDPartial == nil {
		t.Fatal("GCDPartial not recorded")
	}
	if partial.GCDStats.LostSubsets != 1 {
		t.Errorf("LostSubsets = %d, want 1", partial.GCDStats.LostSubsets)
	}
	// Degraded, not wrong: every factored modulus in the partial run is
	// also factored in the full run (a lower bound on the vulnerable set).
	full := make(map[string]bool, len(clean.Fingerprint.Factors))
	for k := range clean.Fingerprint.Factors {
		full[k] = true
	}
	for k := range partial.Fingerprint.Factors {
		if !full[k] {
			t.Error("partial run reported a modulus the full run did not factor")
		}
	}
	if len(partial.Fingerprint.Factors) >= len(clean.Fingerprint.Factors) {
		t.Errorf("losing a subset should shrink the factored set: partial %d, full %d",
			len(partial.Fingerprint.Factors), len(clean.Fingerprint.Factors))
	}
	if partial.Analyzer == nil {
		t.Error("analysis stage should still run on the partial set")
	}
}
