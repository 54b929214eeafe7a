package scanner

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/devices"
	"github.com/factorable/weakkeys/internal/retry"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

// fleet starts n device servers and returns their addresses.
func fleet(t *testing.T, n int, crashOnHeartbeat bool) []string {
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
		srv := &devices.Server{Cert: c, CrashOnHeartbeat: crashOnHeartbeat}
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

func TestScanFleet(t *testing.T) {
	addrs := fleet(t, 10, false)
	results, err := Scan(context.Background(), addrs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("results: %d", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("target %d: %v", i, r.Err)
			continue
		}
		if r.Cert == nil || r.Cert.Subject.Organization != "FleetVendor" {
			t.Errorf("target %d: bad cert", i)
		}
		if r.Addr != addrs[i] {
			t.Errorf("result order broken at %d", i)
		}
	}
}

func TestScanUnreachableTarget(t *testing.T) {
	// A closed port: reserve one by listening and closing.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	addrs := append(fleet(t, 2, false), dead)
	results, err := Scan(context.Background(), addrs, Options{Workers: 2, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if results[2].Err == nil {
		t.Error("dead target should error")
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Error("live targets should still succeed")
	}
}

func TestScanContextCancellation(t *testing.T) {
	addrs := fleet(t, 4, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := Scan(ctx, addrs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for _, r := range results {
		if r.Err != nil {
			errs++
		}
	}
	if errs == 0 {
		t.Error("cancelled scan should produce errors")
	}
}

func TestScanHeartbeatProbe(t *testing.T) {
	good := fleet(t, 2, false)
	results, err := Scan(context.Background(), good, Options{ProbeHeartbeat: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || !r.HeartbeatOK {
			t.Errorf("patched device %d: err=%v hbOK=%v", i, r.Err, r.HeartbeatOK)
		}
	}
	crashy := fleet(t, 2, true)
	results, err = Scan(context.Background(), crashy, Options{ProbeHeartbeat: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("cert fetch should succeed before crash: %d %v", i, r.Err)
		}
		if r.HeartbeatOK {
			t.Errorf("crash-prone device %d should fail the probe", i)
		}
	}
}

func TestHarvestIntoStore(t *testing.T) {
	addrs := fleet(t, 6, false)
	store := scanstore.New()
	date := time.Date(2016, 4, 11, 0, 0, 0, 0, time.UTC)
	_, sum, err := Harvest(context.Background(), store, date, scanstore.SourceCensys, addrs, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stored != 6 {
		t.Errorf("stored = %d, want 6", sum.Stored)
	}
	if len(sum.Retryable) != 0 || sum.StoreErrors != 0 {
		t.Errorf("clean harvest summary: %+v", sum)
	}
	st := store.Stats(scanstore.HTTPS)
	if st.HostRecords != 6 || st.DistinctCerts != 6 {
		t.Errorf("stats: %+v", st)
	}
	if !st.FirstScan.Equal(date) {
		t.Errorf("scan date: %v", st.FirstScan)
	}
}

func TestScanRateLimit(t *testing.T) {
	addrs := fleet(t, 6, false)
	// At 50 probes/second, 6 targets need at least ~100ms of pacing.
	start := time.Now()
	results, err := Scan(context.Background(), addrs, Options{Workers: 6, RatePerSecond: 50})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("scan error under rate limit: %v", r.Err)
		}
	}
	if elapsed < 100*time.Millisecond {
		t.Errorf("6 probes at 50/s finished in %v; pacing not applied", elapsed)
	}
}

func TestScanRateLimitCancellation(t *testing.T) {
	addrs := fleet(t, 4, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := Scan(ctx, addrs, Options{Workers: 1, RatePerSecond: 1}) // 1/s: would take 4s
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for _, r := range results {
		if r.Err != nil {
			errs++
		}
	}
	if errs == 0 {
		t.Error("cancellation under pacing should error remaining targets")
	}
}

func TestScanNegativeRateRejected(t *testing.T) {
	_, err := Scan(context.Background(), []string{"127.0.0.1:1"}, Options{RatePerSecond: -5})
	if err == nil {
		t.Fatal("negative RatePerSecond must be rejected, not treated as unlimited")
	}
	if _, _, err := Harvest(context.Background(), scanstore.New(), time.Now(), scanstore.SourceCensys,
		[]string{"127.0.0.1:1"}, Options{RatePerSecond: -1}); err == nil {
		t.Fatal("Harvest must propagate the options error")
	}
}

func TestScanProgressHook(t *testing.T) {
	addrs := fleet(t, 5, false)
	var mu sync.Mutex
	var dones []int
	total := 0
	results, err := Scan(context.Background(), addrs, Options{Workers: 3,
		Progress: func(done, n int) { mu.Lock(); dones = append(dones, done); total = n; mu.Unlock() }})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("target %d: %v", i, r.Err)
		}
	}
	if len(dones) != 5 || total != 5 {
		t.Fatalf("progress calls = %v (total %d), want 5 monotone calls", dones, total)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Errorf("progress done[%d] = %d, want %d", i, d, i+1)
		}
	}
}

// TestBackoffCapped is the regression test for the unbounded-doubling
// bug: backoff *= 2 with no ceiling wrapped negative after enough
// retries and, before that, grew a single target's retry schedule past
// any scan deadline. The capped schedule's total sleep is bounded by
// attempts x max(Timeout, 1s) even before jitter.
func TestBackoffCapped(t *testing.T) {
	o := Options{Timeout: 3 * time.Second, RetryBackoff: 25 * time.Millisecond}
	cap := maxBackoff(o)
	if cap != 3*time.Second {
		t.Fatalf("maxBackoff = %v, want Timeout", cap)
	}
	// Sub-second timeouts keep a 1s pause floor.
	if got := maxBackoff(Options{Timeout: 50 * time.Millisecond}); got != time.Second {
		t.Fatalf("maxBackoff floor = %v, want 1s", got)
	}

	var total time.Duration
	backoff := o.RetryBackoff
	const retries = 100 // far past the ~40 doublings that used to overflow
	for i := 0; i < retries; i++ {
		if backoff <= 0 {
			t.Fatalf("retry %d: non-positive backoff %v", i, backoff)
		}
		if backoff > cap {
			t.Fatalf("retry %d: backoff %v exceeds cap %v", i, backoff, cap)
		}
		total += backoff
		backoff = retry.DoubleBackoff(backoff, cap)
	}
	if limit := time.Duration(retries) * cap; total > limit {
		t.Fatalf("total sleep %v exceeds bound %v", total, limit)
	}
	// The old schedule overflows exactly where the capped one saturates.
	if d := retry.DoubleBackoff(time.Duration(1)<<62, cap); d != cap {
		t.Errorf("overflow step = %v, want saturation at %v", d, cap)
	}
}
