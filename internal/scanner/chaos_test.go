package scanner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/devices"
	"github.com/factorable/weakkeys/internal/faults"
	"github.com/factorable/weakkeys/internal/retry"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

// faultyFleet starts n device servers whose fault plans come from
// planFor (nil plan = healthy). Key material matches fleet(): same index,
// same key, so a chaos fleet and a clean fleet serve identical certs.
func faultyFleet(t *testing.T, n int, planFor func(i int) *faults.Plan) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		k, err := weakrsa.GenerateKey(rand.New(rand.NewSource(int64(100+i))), weakrsa.Options{Bits: 96})
		if err != nil {
			t.Fatal(err)
		}
		c, err := certs.SelfSigned(big.NewInt(int64(i)),
			certs.Name{CommonName: fmt.Sprintf("dev-%d", i), Organization: "FleetVendor"},
			time.Unix(0, 0), time.Unix(1<<40, 0), nil, k.N, k.E, k.D)
		if err != nil {
			t.Fatal(err)
		}
		srv := &devices.Server{Cert: c, Faults: planFor(i)}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

func moduliSet(results []Result) map[string]bool {
	set := make(map[string]bool)
	for _, r := range results {
		if r.Err == nil && r.Cert != nil {
			set[string(r.Cert.N.Bytes())] = true
		}
	}
	return set
}

// TestRetryRecoversFromTransientFaults is the scanner half of the chaos
// acceptance: every device resets its first connection (a 50% injected
// transient-failure rate), and the retrying scan still harvests the
// exact certificate set a fault-free scan of the same fleet does.
func TestRetryRecoversFromTransientFaults(t *testing.T) {
	const n = 8
	clean := faultyFleet(t, n, func(int) *faults.Plan { return nil })
	cleanResults, err := Scan(context.Background(), clean, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	chaos := faultyFleet(t, n, func(int) *faults.Plan { return faults.NewEveryN(2, faults.Reset) })
	chaosResults, err := Scan(context.Background(), chaos, Options{
		Workers:      4,
		Timeout:      5 * time.Second,
		RetryBackoff: time.Millisecond,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range chaosResults {
		if r.Err != nil {
			t.Fatalf("target %d not recovered: %v (attempts %d)", i, r.Err, r.Attempts)
		}
		if r.Attempts != 2 {
			t.Errorf("target %d: attempts = %d, want 2 (reset then success)", i, r.Attempts)
		}
	}
	want, got := moduliSet(cleanResults), moduliSet(chaosResults)
	if len(got) != len(want) {
		t.Fatalf("chaos harvest %d moduli, fault-free %d", len(got), len(want))
	}
	for m := range want {
		if !got[m] {
			t.Error("chaos harvest missing a modulus the clean scan saw")
		}
	}
	if v := reg.CounterValue(`scanner_retries_total{cause="reset"}`); v != n {
		t.Errorf("scanner_retries_total{cause=reset} = %d, want %d", v, n)
	}
	if v := reg.CounterValue("scanner_attempts_total"); v != 2*n {
		t.Errorf("scanner_attempts_total = %d, want %d", v, 2*n)
	}
}

func TestNoRetryOnPermanentError(t *testing.T) {
	reg := telemetry.New()
	addrs := faultyFleet(t, 2, func(int) *faults.Plan { return faults.NewEveryN(1, faults.Garble) })
	results, err := Scan(context.Background(), addrs, Options{Workers: 2, RetryBackoff: time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("target %d: garbled handshake should fail", i)
		}
		if r.Attempts != 1 {
			t.Errorf("target %d: attempts = %d, want 1 (permanent errors are not retried)", i, r.Attempts)
		}
		if r.Transient {
			t.Errorf("target %d: protocol violation classified transient", i)
		}
	}
	for _, c := range reg.Snapshot().Counters {
		if c.Value != 0 && strings.HasPrefix(c.Name, "scanner_retries_total") {
			t.Errorf("retry counter %s = %d on permanent errors", c.Name, c.Value)
		}
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	reg := telemetry.New()
	// Every connection resets, so only the global budget bounds the
	// scan's total attempts: 3 targets, 3 retries to spend.
	addrs := faultyFleet(t, 3, func(int) *faults.Plan { return faults.NewEveryN(1, faults.Reset) })
	results, err := Scan(context.Background(), addrs, Options{
		Workers:      1, // serialize so budget spend is deterministic
		MaxAttempts:  5,
		RetryBudget:  3,
		RetryBackoff: time.Millisecond,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	totalAttempts := 0
	for _, r := range results {
		if r.Err == nil {
			t.Fatal("always-reset target cannot succeed")
		}
		if !r.Transient {
			t.Errorf("reset classified as %q", retry.Cause(r.Err))
		}
		totalAttempts += r.Attempts
	}
	// 3 first attempts plus exactly the 3 budgeted retries.
	if totalAttempts != 6 {
		t.Errorf("total attempts = %d, want 6 (budget must cap retries)", totalAttempts)
	}
	if v := reg.CounterValue("scanner_retry_budget_exhausted_total"); v == 0 {
		t.Error("budget exhaustion not recorded")
	}
}

func TestStallRetriedAsTimeout(t *testing.T) {
	reg := telemetry.New()
	addrs := faultyFleet(t, 1, func(int) *faults.Plan { return faults.NewEveryN(2, faults.Stall) })
	results, err := Scan(context.Background(), addrs, Options{
		Workers:      1,
		Timeout:      200 * time.Millisecond,
		RetryBackoff: time.Millisecond,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("stalled-once target not recovered: %v", results[0].Err)
	}
	if results[0].Attempts != 2 {
		t.Errorf("attempts = %d, want 2", results[0].Attempts)
	}
	if v := reg.CounterValue(`scanner_retries_total{cause="timeout"}`); v != 1 {
		t.Errorf("scanner_retries_total{cause=timeout} = %d, want 1", v)
	}
}

func TestScanHugeRateClampedNotPanic(t *testing.T) {
	addrs := faultyFleet(t, 2, func(int) *faults.Plan { return nil })
	// Above ~1e9/s the naive tick interval truncates to 0 and
	// time.NewTicker(0) panics; the clamp must absorb it. Inf likewise.
	for _, rate := range []float64{5e9, 1e12, math.Inf(1)} {
		results, err := Scan(context.Background(), addrs, Options{Workers: 2, RatePerSecond: rate})
		if err != nil {
			t.Fatalf("rate %g rejected: %v", rate, err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Errorf("rate %g target %d: %v", rate, i, r.Err)
			}
		}
	}
	if _, err := Scan(context.Background(), addrs, Options{RatePerSecond: math.NaN()}); err == nil {
		t.Error("NaN rate must be rejected")
	}
}

func TestHarvestAggregatesStoreErrors(t *testing.T) {
	k, err := weakrsa.GenerateKey(rand.New(rand.NewSource(500)), weakrsa.Options{Bits: 96})
	if err != nil {
		t.Fatal(err)
	}
	good, err := certs.SelfSigned(big.NewInt(9), certs.Name{CommonName: "ok"},
		time.Unix(0, 0), time.Unix(1<<40, 0), nil, k.N, k.E, k.D)
	if err != nil {
		t.Fatal(err)
	}
	results := []Result{
		// An unstorable observation (no modulus): must not abort the loop.
		{Addr: "10.0.0.1:443", Cert: &certs.Certificate{}},
		{Addr: "10.0.0.2:443", Cert: good},
		{Addr: "10.0.0.3:443", Err: errors.New("reset"), Transient: true},
		{Addr: "10.0.0.4:443", Err: errors.New("garbled"), Transient: false},
	}
	store := scanstore.New()
	var sum HarvestSummary
	var storeErrs int
	for _, r := range results {
		if err := storeOne(store, time.Date(2016, 4, 11, 0, 0, 0, 0, time.UTC), scanstore.SourceCensys, r, &sum); err != nil {
			storeErrs++
		}
	}
	if storeErrs != 1 {
		t.Fatalf("store failures reported = %d, want 1", storeErrs)
	}
	if sum.Stored != 1 {
		t.Errorf("stored = %d, want 1: later observations must survive an earlier store error", sum.Stored)
	}
	if sum.StoreErrors != 1 {
		t.Errorf("store errors = %d, want 1", sum.StoreErrors)
	}
	if len(sum.Retryable) != 1 || sum.Retryable[0] != "10.0.0.3:443" {
		t.Errorf("retryable = %v, want only the transient failure", sum.Retryable)
	}
}

func TestHarvestReturnsRetryableTargets(t *testing.T) {
	live := faultyFleet(t, 2, func(int) *faults.Plan { return nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	targets := append(live, dead)
	store := scanstore.New()
	_, sum, err := Harvest(context.Background(), store, time.Now(), scanstore.SourceCensys, targets, Options{
		Workers: 2, Timeout: 2 * time.Second, MaxAttempts: 2, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stored != 2 {
		t.Errorf("stored = %d, want 2", sum.Stored)
	}
	if len(sum.Retryable) != 1 || sum.Retryable[0] != dead {
		t.Errorf("retryable = %v, want the refused target for the resume pass", sum.Retryable)
	}
}
