package keycheck

import (
	"context"
	"errors"
	"math/big"
	"sync"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/faults"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// TestServiceChaosFaults drives concurrent checks through a service
// whose fault plan refuses and stalls a fraction of them. Every check
// must end in exactly one of two states — a correct verdict or a shed —
// and the telemetry must account for each injected fault. Runs under
// -race in CI.
func TestServiceChaosFaults(t *testing.T) {
	reg := telemetry.New()
	plan := faults.NewPlan(7, faults.Weights{Refuse: 0.25, Stall: 0.1})
	svc := NewService(goldenSnapshot(t, 2), Config{
		Workers:    4,
		CacheSize:  -1, // every check exercises the full path
		Metrics:    reg,
		Faults:     plan,
		FaultStall: time.Millisecond,
	})

	inputs := []*big.Int{modN1, modN2, modN3, modNs, modNc}
	want := map[string]Status{
		string(modN1.Bytes()): StatusFactored,
		string(modN2.Bytes()): StatusFactored,
		string(modN3.Bytes()): StatusClean,
		string(modNs.Bytes()): StatusSharedFactor,
		string(modNc.Bytes()): StatusClean,
	}

	const goroutines, perG = 16, 20
	var ok, shed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				n := inputs[(g+i)%len(inputs)]
				v, err := svc.Check(context.Background(), n)
				mu.Lock()
				switch {
				case err == nil:
					ok++
					if v.Status != want[string(n.Bytes())] {
						t.Errorf("wrong verdict for %s: %+v", n.Text(16), v)
					}
				case errors.Is(err, ErrOverloaded):
					shed++
				default:
					t.Errorf("unexpected error: %v", err)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	if ok+shed != goroutines*perG {
		t.Errorf("accounting: %d ok + %d shed != %d checks", ok, shed, goroutines*perG)
	}
	injected := plan.Injected()
	if shed < injected[faults.Refuse] {
		t.Errorf("%d sheds < %d injected refusals", shed, injected[faults.Refuse])
	}
	wantInjected := injected[faults.Refuse] + injected[faults.Stall]
	if got := reg.CounterValue("keycheck_faults_injected_total"); got != wantInjected {
		t.Errorf("keycheck_faults_injected_total = %d, want %d", got, wantInjected)
	}
	if got := reg.CounterValue(`keycheck_shed_total{cause="fault"}`); got != injected[faults.Refuse] {
		t.Errorf(`keycheck_shed_total{cause="fault"} = %d, want %d`, got, injected[faults.Refuse])
	}
	if injected[faults.Refuse] == 0 || injected[faults.Stall] == 0 {
		t.Errorf("plan injected nothing (refuse=%d stall=%d); chaos test is vacuous",
			injected[faults.Refuse], injected[faults.Stall])
	}
}

// TestServiceShedsWhenSaturated pins the worker pool behaviour: with one
// worker held by a stalled check and a negative queue wait, every other
// check is shed immediately with ErrOverloaded.
func TestServiceShedsWhenSaturated(t *testing.T) {
	reg := telemetry.New()
	svc := NewService(goldenSnapshot(t, 1), Config{
		Workers:    1,
		QueueWait:  -1, // shed instead of queueing
		CacheSize:  -1,
		Metrics:    reg,
		Faults:     faults.NewEveryN(1, faults.Stall), // every check stalls its worker
		FaultStall: 100 * time.Millisecond,
	})

	done := make(chan error, 1)
	go func() {
		_, err := svc.Check(context.Background(), modNc)
		done <- err
	}()
	// Wait for the stalled check to occupy the sole worker.
	deadline := time.Now().Add(10 * time.Second)
	for reg.GaugeValue("keycheck_inflight_checks") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("stalled check never acquired the worker")
		}
		time.Sleep(time.Millisecond)
	}

	const contenders = 5
	for i := 0; i < contenders; i++ {
		n := new(big.Int).SetBit(big.NewInt(int64(i)*2+1), 40, 1)
		if _, err := svc.Check(context.Background(), n); !errors.Is(err, ErrOverloaded) {
			t.Errorf("contender %d: err = %v, want ErrOverloaded", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Errorf("stalled check itself failed: %v", err)
	}
	if got := reg.CounterValue(`keycheck_shed_total{cause="queue"}`); got != contenders {
		t.Errorf(`keycheck_shed_total{cause="queue"} = %d, want %d`, got, contenders)
	}
}

// TestDrain: checks in flight when Drain starts must complete; checks
// arriving afterwards are refused with ErrDraining.
func TestDrain(t *testing.T) {
	reg := telemetry.New()
	svc := NewService(goldenSnapshot(t, 1), Config{
		Workers:    2,
		Metrics:    reg,
		Faults:     faults.NewEveryN(1, faults.Stall),
		FaultStall: 30 * time.Millisecond,
	})

	type outcome struct {
		v   Verdict
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		v, err := svc.Check(context.Background(), modN1)
		done <- outcome{v, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for reg.GaugeValue("keycheck_inflight_checks") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight check never started")
		}
		time.Sleep(time.Millisecond)
	}

	svc.Drain()
	// Drain returned, so the in-flight check must have finished inside
	// the service. (Its goroutine may not have been scheduled to send
	// the result yet, so "already buffered" is not the thing to assert.)
	if v := reg.GaugeValue("keycheck_inflight_checks"); v != 0 {
		t.Errorf("Drain returned with keycheck_inflight_checks = %g", v)
	}
	if out := <-done; out.err != nil || out.v.Status != StatusFactored {
		t.Errorf("in-flight check during drain: %+v, %v", out.v, out.err)
	}

	if _, err := svc.Check(context.Background(), modN2); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain check: err = %v, want ErrDraining", err)
	}
	if got := reg.CounterValue(`keycheck_shed_total{cause="draining"}`); got != 1 {
		t.Errorf(`keycheck_shed_total{cause="draining"} = %d, want 1`, got)
	}
	svc.Drain() // idempotent
}

// TestPublishInvalidatesCache: a snapshot swap must retire cached
// verdicts — a key that was clean may be factored in the new corpus.
func TestPublishInvalidatesCache(t *testing.T) {
	reg := telemetry.New()
	svc := NewService(goldenSnapshot(t, 1), Config{Metrics: reg})
	ctx := context.Background()

	if _, err := svc.Check(ctx, modN1); err != nil {
		t.Fatal(err)
	}
	v, err := svc.Check(ctx, modN1)
	if err != nil || !v.Cached {
		t.Fatalf("second check not cached: %+v, %v", v, err)
	}
	if svc.CacheLen() != 1 {
		t.Fatalf("cache len %d", svc.CacheLen())
	}

	svc.Publish(goldenSnapshot(t, 1))
	v, err = svc.Check(ctx, modN1)
	if err != nil || v.Cached {
		t.Errorf("post-swap check served stale cache: %+v, %v", v, err)
	}
	if got := reg.CounterValue("keycheck_snapshot_swaps_total"); got != 1 {
		t.Errorf("keycheck_snapshot_swaps_total = %d, want 1", got)
	}
}

// TestNovelCheckHistogram: keycheck_novel_check_seconds sees exactly the
// checks the index computed for a modulus it does not hold — not
// members, and not the cache hit that repeats a novel answer.
func TestNovelCheckHistogram(t *testing.T) {
	reg := telemetry.New()
	svc := NewService(goldenSnapshot(t, 2), Config{Metrics: reg})
	ctx := context.Background()
	for _, n := range []*big.Int{modN1, modN3, modNs, modNc, modNc} {
		if _, err := svc.Check(ctx, n); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.novelSeconds.Count(); got != 2 {
		t.Errorf("keycheck_novel_check_seconds count = %d, want 2 (modNs, modNc once)", got)
	}
	if got := svc.checkSeconds.Count(); got != 4 {
		t.Errorf("keycheck_check_seconds count = %d, want 4", got)
	}
	// The handles are nil-safe: a service without a registry still checks.
	if _, err := NewService(goldenSnapshot(t, 2), Config{}).Check(ctx, modNc); err != nil {
		t.Fatal(err)
	}
}

// TestIngestStepHistograms: an ingest that sweeps and publishes observes
// each of its five steps once, the steps add up to no more than the
// whole, and one that finds only duplicates observes the partition alone.
func TestIngestStepHistograms(t *testing.T) {
	reg := telemetry.New()
	svc := NewService(goldenSnapshot(t, 2), Config{Metrics: reg})
	ctx := context.Background()
	steps := []string{"partition", "sweep", "mates", "resolve", "merge"}
	count := func(step string) uint64 {
		return reg.Histogram(`keycheck_ingest_step_seconds{step="`+step+`"}`, telemetry.DurationBuckets).Count()
	}
	rep, err := svc.Ingest(ctx, BuildInput{Store: deltaStore(t, mul(q1, s1), mul(s2, s3))})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Steps
	if sum := st.Partition + st.Sweep + st.Mates + st.Resolve + st.Merge; sum <= 0 || sum > rep.Elapsed {
		t.Errorf("steps %+v sum to %v of %v elapsed", st, sum, rep.Elapsed)
	}
	for _, step := range steps {
		if got := count(step); got != 1 {
			t.Errorf("step %q observed %d times after one full ingest, want 1", step, got)
		}
	}
	if _, err := svc.Ingest(ctx, BuildInput{Store: deltaStore(t, modN3)}); err != nil {
		t.Fatal(err)
	}
	for _, step := range steps {
		want := uint64(1)
		if step == "partition" {
			want = 2
		}
		if got := count(step); got != want {
			t.Errorf("step %q observed %d times after a duplicate-only ingest, want %d", step, got, want)
		}
	}
}

// TestServiceQueueWaitAdmits: a check that finds all workers busy but
// sees one free within QueueWait is admitted, not shed.
func TestServiceQueueWaitAdmits(t *testing.T) {
	svc := NewService(goldenSnapshot(t, 1), Config{
		Workers:    1,
		QueueWait:  2 * time.Second,
		CacheSize:  -1,
		Faults:     faults.NewEveryN(2, faults.Stall), // stall every 2nd check
		FaultStall: 20 * time.Millisecond,
	})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := new(big.Int).SetBit(big.NewInt(int64(i)*2+1), 50, 1)
			_, errs[i] = svc.Check(context.Background(), n)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("check %d shed despite generous queue wait: %v", i, err)
		}
	}
}

// TestServiceContextCancelled: a queued check whose context dies while
// waiting for a worker returns the context error, not a verdict.
func TestServiceContextCancelled(t *testing.T) {
	svc := NewService(goldenSnapshot(t, 1), Config{
		Workers:    1,
		QueueWait:  10 * time.Second,
		CacheSize:  -1,
		Faults:     faults.NewEveryN(1, faults.Stall),
		FaultStall: 200 * time.Millisecond,
	})
	started := make(chan struct{})
	go func() {
		close(started)
		svc.Check(context.Background(), modNc)
	}()
	<-started
	time.Sleep(20 * time.Millisecond) // let the first check take the worker

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := svc.Check(ctx, modN3); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	svc.Drain()
}

func BenchmarkServiceCheck(b *testing.B) {
	snap, err := buildBenchSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	svc := NewService(snap, Config{CacheSize: -1})
	ctx := context.Background()
	b.Run("known", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svc.Check(ctx, modN1)
		}
	})
	b.Run("novel-gcd", func(b *testing.B) {
		n := new(big.Int).Mul(r2, r3)
		for i := 0; i < b.N; i++ {
			svc.Check(ctx, n)
		}
	})
}

// buildBenchSnapshot indexes a 513-modulus corpus so the novel-GCD
// benchmark reduces against realistically sized shard products.
func buildBenchSnapshot() (*Snapshot, error) {
	store := scanstore.New()
	when := date(2013, 1, 1)
	base := new(big.Int).Lsh(big.NewInt(1), 127)
	for i := int64(0); i < 512; i++ {
		n := new(big.Int).Add(base, big.NewInt(i*2+1))
		store.AddBareKeyObservation("10.0.0.1", when, scanstore.SourceRapid7, scanstore.SSH, n)
	}
	store.AddBareKeyObservation("10.0.0.2", when, scanstore.SourceRapid7, scanstore.SSH, modN1)
	return Build(context.Background(), BuildInput{Store: store, Shards: 4})
}

// TestStaleVerdictNotCachedAcrossSwap pins the swap/insert race: a check
// computes its verdict against the pre-swap snapshot, then Publish swaps,
// then the check inserts. Untagged, that stale verdict would be served
// from cache; generation tagging makes the next check recompute against
// the new snapshot.
func TestStaleVerdictNotCachedAcrossSwap(t *testing.T) {
	full := goldenSnapshot(t, 2)

	// Same corpus with no factorizations: N1 flips factored -> clean.
	store := scanstore.New()
	store.AddBareKeyObservation("10.0.0.1", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, modN1)
	store.AddBareKeyObservation("10.0.0.2", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, modN2)
	store.AddBareKeyObservation("10.0.0.3", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, modN3)
	lost, err := Build(context.Background(), BuildInput{Store: store, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}

	svc := NewService(full, Config{})
	ctx := context.Background()
	fired := false
	svc.prePutHook = func() {
		if !fired {
			fired = true
			svc.Publish(lost)
		}
	}

	// Computed against `full` (factored), inserted after the swap.
	v, err := svc.Check(ctx, modN1)
	if err != nil || v.Status != StatusFactored {
		t.Fatalf("first check = %+v, %v, want factored off the old snapshot", v, err)
	}
	if !fired {
		t.Fatal("hook did not fire")
	}
	// Must recompute against `lost`, not serve the stale insert.
	v, err = svc.Check(ctx, modN1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cached || v.Status != StatusClean {
		t.Fatalf("post-swap check = %+v, want uncached clean (stale factored verdict served)", v)
	}
	// And the recomputed verdict is cached under the new generation.
	v, err = svc.Check(ctx, modN1)
	if err != nil || !v.Cached || v.Status != StatusClean {
		t.Fatalf("third check = %+v, %v, want cached clean", v, err)
	}
}

// TestIngestRacesDrain pins the rolling-restart invariant: an Ingest
// racing Drain either lands completely (the delta is in the published
// snapshot) or is refused with ErrDraining — never a half-merged index.
// Drain must also wait out an in-flight merge before declaring quiesced.
func TestIngestRacesDrain(t *testing.T) {
	for round := 0; round < 6; round++ {
		svc := NewService(goldenSnapshot(t, 2), Config{Workers: 2})
		baseline := svc.Index().Snapshot().Moduli()
		delta := deltaStore(t, new(big.Int).Mul(s1, s2), new(big.Int).Mul(s3, s4))

		type outcome struct {
			rep IngestReport
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			rep, err := svc.Ingest(context.Background(), BuildInput{Store: delta})
			done <- outcome{rep, err}
		}()
		// Vary the interleaving: sometimes Drain beats the ingest to the
		// gate, sometimes it arrives mid-merge and must wait.
		time.Sleep(time.Duration(round) * 200 * time.Microsecond)
		svc.Drain()
		out := <-done

		got := svc.Index().Snapshot().Moduli()
		switch {
		case out.err == nil:
			if out.rep.DeltaModuli != 2 || got != baseline+2 {
				t.Fatalf("round %d: ingest won but report=%+v moduli=%d (baseline %d)",
					round, out.rep, got, baseline)
			}
		case errors.Is(out.err, ErrDraining):
			if got != baseline {
				t.Fatalf("round %d: refused ingest mutated the index: %d -> %d", round, baseline, got)
			}
		default:
			t.Fatalf("round %d: ingest err = %v, want nil or ErrDraining", round, out.err)
		}

		// The gate stays shut after drain.
		if _, err := svc.Ingest(context.Background(), BuildInput{Store: delta}); !errors.Is(err, ErrDraining) {
			t.Fatalf("round %d: post-drain ingest err = %v, want ErrDraining", round, err)
		}
	}
}
