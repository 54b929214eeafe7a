package zscan

import (
	"context"
	"testing"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/devices"
	"github.com/factorable/weakkeys/internal/faults"
	"github.com/factorable/weakkeys/internal/retry"
)

func testFleet(t *testing.T, opts FleetOptions) *SimFleet {
	t.Helper()
	f, err := NewSimFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFleetDeterministic(t *testing.T) {
	opts := FleetOptions{Space: 4096, Devices: 24, Vulnerable: 0.5, Seed: 11}
	a := testFleet(t, opts)
	b := testFleet(t, opts)
	ai, bi := a.Indexes(), b.Indexes()
	if len(ai) != 24 || len(ai) != len(bi) {
		t.Fatalf("device counts %d/%d, want 24", len(ai), len(bi))
	}
	for i := range ai {
		if ai[i] != bi[i] {
			t.Fatalf("placement differs at %d: %d vs %d", i, ai[i], bi[i])
		}
	}
	aw, bw := a.WeakExemplars(), b.WeakExemplars()
	if len(aw) == 0 {
		t.Fatal("no weak exemplars in a half-vulnerable fleet")
	}
	for i := range aw {
		if aw[i] != bw[i] {
			t.Fatalf("weak exemplars differ at %d", i)
		}
	}
}

func TestFleetProbeHitAndMiss(t *testing.T) {
	f := testFleet(t, FleetOptions{Space: 1 << 16, Devices: 8, Seed: 3})
	idxs := f.Indexes()
	ctx := context.Background()

	res := f.Probe(ctx, idxs[0])
	if res.Err != nil {
		t.Fatalf("probe of live device: %v", res.Err)
	}
	cert, err := certs.Parse(res.DER)
	if err != nil {
		t.Fatalf("device DER does not parse: %v", err)
	}
	if cert.N == nil || cert.N.Sign() <= 0 {
		t.Fatal("parsed certificate has no modulus")
	}
	if len(res.Suites) == 0 {
		t.Fatal("device advertised no suites")
	}

	// Pick an empty index: one past a device that has no neighbor.
	empty := uint64(0)
	taken := make(map[uint64]bool, len(idxs))
	for _, i := range idxs {
		taken[i] = true
	}
	for taken[empty] {
		empty++
	}
	miss := f.Probe(ctx, empty)
	if miss.Err != ErrNoDevice {
		t.Fatalf("probe of empty index: err = %v, want ErrNoDevice", miss.Err)
	}
	if cause := retry.Cause(miss.Err); cause != retry.CauseTimeout {
		t.Fatalf("miss classifies as %q, want timeout", cause)
	}
}

func TestFleetWeakDevicesAreRSAOnly(t *testing.T) {
	f := testFleet(t, FleetOptions{Space: 4096, Devices: 16, Vulnerable: 0.5, Seed: 5})
	ctx := context.Background()
	rsaOnly := 0
	for _, idx := range f.Indexes() {
		res := f.Probe(ctx, idx)
		if res.Err != nil {
			t.Fatalf("probe %d: %v", idx, res.Err)
		}
		if devices.RSAOnly(res.Suites) {
			rsaOnly++
		}
	}
	if rsaOnly != 8 {
		t.Fatalf("RSA-only devices = %d, want 8 (the vulnerable half)", rsaOnly)
	}
}

func TestFleetFaultEveryNRecovers(t *testing.T) {
	f := testFleet(t, FleetOptions{
		Space: 1024, Devices: 6, Seed: 9,
		FaultEvery: 2, FaultAction: faults.Reset,
	})
	ctx := context.Background()
	for _, idx := range f.Indexes() {
		first := f.Probe(ctx, idx)
		if first.Err == nil {
			t.Fatalf("device %d: first probe must fault under EveryN(2)", idx)
		}
		if !retry.Transient(first.Err) {
			t.Fatalf("device %d: injected reset classified permanent: %v", idx, first.Err)
		}
		second := f.Probe(ctx, idx)
		if second.Err != nil {
			t.Fatalf("device %d: second probe must recover, got %v", idx, second.Err)
		}
	}
}

// faultCases pins, per injected fault, the error SimFleet stands in for
// it and the retry.Cause that error classifies as — and, in socket, the
// cause the same devices.Server fault produces over a real connection
// (TestTCPFaultClassification), so the simulated and the socket engine
// paths are held to each other. They differ in one row: a server can
// only slam a connection it has already accepted, which the client sees
// as a reset; the kernel's own "refused" needs a closed port
// (TestTCPClosedPortRefused). Both are transient, so the loss model —
// the next cycle re-covers it — is the same. The Pass row is the
// empty-address miss.
var faultCases = []struct {
	action    faults.Action
	sim       error
	cause     string
	socket    string
	transient bool
}{
	{faults.Refuse, errRefused, retry.CauseRefused, retry.CauseReset, true},
	{faults.Reset, errReset, retry.CauseReset, retry.CauseReset, true},
	{faults.Stall, errStall, retry.CauseTimeout, retry.CauseTimeout, true},
	{faults.Truncate, errTruncate, retry.CauseReset, retry.CauseReset, true},
	{faults.Garble, errGarble, retry.CausePermanent, retry.CausePermanent, false},
	{faults.Pass, ErrNoDevice, retry.CauseTimeout, "", true},
}

func TestFaultClassification(t *testing.T) {
	for _, tc := range faultCases {
		if got := retry.Cause(tc.sim); got != tc.cause {
			t.Errorf("Cause(%v) = %q, want %q", tc.sim, got, tc.cause)
		}
		if got := retry.Transient(tc.sim); got != tc.transient {
			t.Errorf("Transient(%v) = %v, want %v", tc.sim, got, tc.transient)
		}
	}
}

func TestWeakExemplarsComeFromFullCohorts(t *testing.T) {
	f := testFleet(t, FleetOptions{Space: 8192, Devices: 32, Vulnerable: 0.5, Seed: 21})
	ex := f.WeakExemplars()
	if len(ex) < 2 {
		t.Fatalf("weak exemplars = %d, want >= 2 (cohorts of 2-6 over 16 weak devices)", len(ex))
	}
	seen := make(map[string]bool)
	for _, m := range ex {
		if seen[m] {
			continue
		}
		seen[m] = true
	}
	if len(seen) < 2 {
		t.Fatalf("distinct weak exemplars = %d, want >= 2", len(seen))
	}
}

func TestFleetValidation(t *testing.T) {
	if _, err := NewSimFleet(FleetOptions{Space: 0}); err == nil {
		t.Error("zero space must be rejected")
	}
	if _, err := NewSimFleet(FleetOptions{Space: 4, Devices: 8}); err == nil {
		t.Error("more devices than addresses must be rejected")
	}
	if _, err := NewSimFleet(FleetOptions{Space: 100, Vulnerable: 1.5}); err == nil {
		t.Error("fraction > 1 must be rejected")
	}
}
