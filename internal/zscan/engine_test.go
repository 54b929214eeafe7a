package zscan

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/faults"
	"github.com/factorable/weakkeys/internal/retry"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
)

func TestEngineFullSweep(t *testing.T) {
	fleet := testFleet(t, FleetOptions{Space: 4096, Devices: 32, Seed: 1})
	store := scanstore.New()
	reg := telemetry.New()
	eng, err := New(Options{
		Space: 4096, Seed: 1, Prober: fleet, Store: store, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes != 4096 {
		t.Errorf("probes = %d, want 4096", rep.Probes)
	}
	if rep.Hits != 32 {
		t.Errorf("hits = %d, want 32", rep.Hits)
	}
	if rep.Misses != 4096-32 {
		t.Errorf("misses = %d, want %d", rep.Misses, 4096-32)
	}
	if rep.Stored != 32 {
		t.Errorf("stored = %d, want 32", rep.Stored)
	}
	if rep.NovelModuli+rep.DuplicateModuli != 32 {
		t.Errorf("novel %d + dup %d != 32", rep.NovelModuli, rep.DuplicateModuli)
	}
	if got := len(store.Records()); got != 32 {
		t.Errorf("store records = %d, want 32", got)
	}
	if v := reg.CounterValue("zscan_probes_total"); v != 4096 {
		t.Errorf("zscan_probes_total = %d, want 4096", v)
	}
	if v := reg.CounterValue("zscan_hits_total"); v != 32 {
		t.Errorf("zscan_hits_total = %d, want 32", v)
	}
	if v := reg.GaugeValue("zscan_inflight"); v != 0 {
		t.Errorf("zscan_inflight = %g after run, want 0", v)
	}
}

// TestEngineResweepRecoversFaults is the ZMap loss model end to end:
// cycle 1 faults every device (EveryN(2) hits connection 1), cycle 2
// recovers all of them. No in-place retries anywhere.
func TestEngineResweepRecoversFaults(t *testing.T) {
	fleet := testFleet(t, FleetOptions{
		Space: 2048, Devices: 16, Seed: 2,
		FaultEvery: 2, FaultAction: faults.Reset,
	})
	store := scanstore.New()
	eng, err := New(Options{
		Space: 2048, Seed: 2, Cycles: 2, Prober: fleet, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != 2 {
		t.Fatalf("cycles = %d, want 2", rep.Cycles)
	}
	if rep.Hits != 16 {
		t.Errorf("hits = %d, want 16 (every device recovered on cycle 2)", rep.Hits)
	}
	if rep.Errors[retry.CauseReset] != 16 {
		t.Errorf("reset errors = %d, want 16 (every device faulted on cycle 1)",
			rep.Errors[retry.CauseReset])
	}
	// Cycle 2's observations carry cycle 2's scan date.
	dates := store.ScanDates(scanstore.HTTPS)
	if len(dates) != 1 {
		t.Fatalf("scan dates = %v, want exactly the cycle-2 date", dates)
	}
	want := time.Date(2016, 4, 2, 0, 0, 0, 0, time.UTC)
	if !dates[0].Equal(want) {
		t.Errorf("scan date = %v, want %v", dates[0], want)
	}
}

// TestEngineShardsPartitionFleet runs the 2-shard coordination-free
// split: two engines with the same (space, seed) and disjoint shards
// must harvest every device exactly once between them. They sweep the
// one fleet concurrently, as two zscand processes would one network,
// so the race detector certifies the shared prober.
func TestEngineShardsPartitionFleet(t *testing.T) {
	const space, devs = 4096, 24
	fleet := testFleet(t, FleetOptions{Space: space, Devices: devs, Seed: 4})
	var stores [2]*scanstore.Store
	var probes [2]uint64
	var wg sync.WaitGroup
	for shard := range stores {
		stores[shard] = scanstore.New()
		eng, err := New(Options{
			Space: space, Seed: 4, Shard: shard, Shards: 2,
			Prober: fleet, Store: stores[shard],
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			rep, err := eng.Run(context.Background())
			if err != nil {
				t.Error(err)
			}
			probes[shard] = rep.Probes
		}(shard)
	}
	wg.Wait()
	var ips []string
	for _, store := range stores {
		for _, r := range store.Records() {
			ips = append(ips, r.IP)
		}
	}
	totalProbes := probes[0] + probes[1]
	if totalProbes != space {
		t.Errorf("total probes across shards = %d, want %d", totalProbes, space)
	}
	if len(ips) != devs {
		t.Fatalf("total harvested = %d, want %d (omission or overlap)", len(ips), devs)
	}
	sort.Strings(ips)
	for i := 1; i < len(ips); i++ {
		if ips[i] == ips[i-1] {
			t.Fatalf("device %s harvested by both shards", ips[i])
		}
	}
}

func TestEngineCheckpointChain(t *testing.T) {
	dir := t.TempDir()
	fleet := testFleet(t, FleetOptions{Space: 2048, Devices: 18, Seed: 6})
	store := scanstore.New()
	eng, err := New(Options{
		Space: 2048, Seed: 6, Prober: fleet, Store: store,
		CheckpointDir: dir, CheckpointEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checkpoints < 4 {
		t.Fatalf("checkpoints = %d, want >= 4 for 18 stored at every-4", rep.Checkpoints)
	}
	files, err := filepath.Glob(filepath.Join(dir, "zscan-*.delta"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	if len(files) != rep.Checkpoints {
		t.Fatalf("delta files = %d, report says %d", len(files), rep.Checkpoints)
	}
	// Replaying the chain into a fresh store reconstructs the harvest.
	replay := scanstore.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		err = replay.LoadSince(f)
		f.Close()
		if err != nil {
			t.Fatalf("replay %s: %v", path, err)
		}
	}
	if got, want := len(replay.Records()), rep.Stored; got != want {
		t.Fatalf("replayed records = %d, want %d", got, want)
	}
}

// TestLoadCheckpointsPastSegment9999 renames a real five-segment chain
// to zscan-9998 … zscan-10002: the names now sort differently as strings
// and as numbers, and replay must follow the numbers, as must the index a
// restarted engine writes next.
func TestLoadCheckpointsPastSegment9999(t *testing.T) {
	dir := t.TempDir()
	fleet := testFleet(t, FleetOptions{Space: 2048, Devices: 18, Seed: 6})
	eng, err := New(Options{
		Space: 2048, Seed: 6, Prober: fleet, Store: scanstore.New(),
		CheckpointDir: dir, CheckpointEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "zscan-*.delta"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files) // zscan-0000 … zscan-0004: name order is index order
	if len(files) != 5 {
		t.Fatalf("%d segments, want 5 for 18 stored at every-4", len(files))
	}
	for i, path := range files {
		if err := os.Rename(path, filepath.Join(dir, fmt.Sprintf("zscan-%04d.delta", 9998+i))); err != nil {
			t.Fatal(err)
		}
	}

	replay := scanstore.New()
	n, err := LoadCheckpoints(dir, replay)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || len(replay.Records()) != rep.Stored {
		t.Fatalf("replayed %d segments and %d records, want 5 and %d", n, len(replay.Records()), rep.Stored)
	}
	restarted, err := New(Options{Space: 2048, Seed: 6, Prober: fleet, Store: replay, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if restarted.cpNext != 10003 {
		t.Errorf("restarted engine writes segment %d next, want 10003", restarted.cpNext)
	}
}

// TestEngineCheckpointRestartContinuesChain restarts a shard into a
// non-empty checkpoint dir: the new engine must continue the delta
// numbering past the existing segments instead of silently overwriting
// them, the first run's files must survive byte-for-byte, a torn
// zscan-NNNN.delta.tmp left by a kill mid-checkpoint must be ignored,
// and the full chain must still replay in order.
func TestEngineCheckpointRestartContinuesChain(t *testing.T) {
	dir := t.TempDir()
	fleet := testFleet(t, FleetOptions{Space: 2048, Devices: 18, Seed: 6})
	run := func(date time.Time) Report {
		store := scanstore.New()
		if _, err := LoadCheckpoints(dir, store); err != nil {
			t.Fatal(err)
		}
		eng, err := New(Options{
			Space: 2048, Seed: 6, Prober: fleet, Store: store,
			CheckpointDir: dir, CheckpointEvery: 4, Date: date,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	rep1 := run(time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC))
	files1, err := filepath.Glob(filepath.Join(dir, "zscan-*.delta"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files1)
	if len(files1) != rep1.Checkpoints || rep1.Checkpoints < 4 {
		t.Fatalf("first run: %d files for %d checkpoints", len(files1), rep1.Checkpoints)
	}
	before := make(map[string][]byte, len(files1))
	for _, path := range files1 {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		before[path] = data
	}

	// A kill mid-checkpoint leaves a torn temp file under the next
	// index: replay must ignore it and the restarted engine must take
	// that index for its own first segment.
	torn := filepath.Join(dir, fmt.Sprintf("zscan-%04d.delta.tmp", len(files1)))
	if err := os.WriteFile(torn, before[files1[0]][:10], 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh engine and store, same directory.
	rep2 := run(time.Date(2016, 4, 2, 0, 0, 0, 0, time.UTC))
	if _, err := os.Stat(strings.TrimSuffix(torn, ".tmp")); err != nil {
		t.Fatalf("restart did not write the segment after the torn temp file: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Errorf("temp files left behind by a completed run: %v", left)
	}
	files2, err := filepath.Glob(filepath.Join(dir, "zscan-*.delta"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files2)
	if got, want := len(files2), len(files1)+rep2.Checkpoints; got != want {
		t.Fatalf("after restart: %d delta files, want %d (first run's %d + second run's %d)",
			got, want, len(files1), rep2.Checkpoints)
	}
	for _, path := range files1 {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(before[path]) {
			t.Errorf("restart rewrote existing segment %s", filepath.Base(path))
		}
	}

	// The combined chain still replays front to back.
	replay := scanstore.New()
	total := 0
	for _, path := range files2 {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		err = replay.LoadSince(f)
		f.Close()
		if err != nil {
			t.Fatalf("replay %s: %v", path, err)
		}
		total++
	}
	if total != len(files2) {
		t.Fatalf("replayed %d of %d segments", total, len(files2))
	}
	if got, want := len(replay.Records()), rep1.Stored+rep2.Stored; got != want {
		t.Fatalf("replayed records = %d, want %d (both runs)", got, want)
	}
}

func TestEnginePacing(t *testing.T) {
	fleet := testFleet(t, FleetOptions{Space: 400, Devices: 1, Seed: 7})
	store := scanstore.New()
	eng, err := New(Options{
		Space: 400, Seed: 7, Rate: 1000, Prober: fleet, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if rep.Probes != 400 {
		t.Fatalf("probes = %d, want 400", rep.Probes)
	}
	// 400 probes at 1000/s should take ~400ms; accept anything over
	// 250ms so a loaded CI box can't flake the lower bound.
	if elapsed < 250*time.Millisecond {
		t.Errorf("sweep finished in %v: pacing not applied", elapsed)
	}
}

func TestEngineCancel(t *testing.T) {
	fleet := testFleet(t, FleetOptions{Space: 1 << 20, Devices: 4, Seed: 8})
	store := scanstore.New()
	eng, err := New(Options{
		Space: 1 << 20, Seed: 8, Rate: 2000, Prober: fleet, Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	rep, err := eng.Run(ctx)
	if err == nil {
		t.Fatal("canceled run must report the context error")
	}
	if rep.Probes >= 1<<20 {
		t.Fatalf("probes = %d: cancel did not stop the sweep", rep.Probes)
	}
}

func TestEngineValidation(t *testing.T) {
	fleet := testFleet(t, FleetOptions{Space: 64, Devices: 2, Seed: 1})
	store := scanstore.New()
	bad := []Options{
		{Space: 64, Store: store},                                     // no prober
		{Space: 64, Prober: fleet},                                    // no store
		{Space: 64, Prober: fleet, Store: store, Shard: 2, Shards: 2}, // shard out of range
		{Space: 64, Prober: fleet, Store: store, Rate: -1},            // negative rate
		{Space: 64, Prober: fleet, Store: store, Rate: math.NaN()},    // NaN rate
		{Space: 0, Prober: fleet, Store: store},                       // empty space
		{Space: maxSpace + 1, Prober: fleet, Store: store, Shard: 0},  // oversized space
	}
	for i, o := range bad {
		if _, err := New(o); err == nil {
			t.Errorf("options %d must be rejected", i)
		}
	}
}

// TestEngineKeepsWorkersBusy: a space of a few addresses per worker,
// with probes slow enough to overlap, must still have every worker
// probing at once — the sender may batch addresses into runs, but never
// so long a run that the others sit idle.
func TestEngineKeepsWorkersBusy(t *testing.T) {
	const space, workers = 64, 16
	var active, peak atomic.Int64
	prober := proberFunc(func(_ context.Context, i uint64) ProbeResult {
		n := active.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(20 * time.Millisecond)
		active.Add(-1)
		return ProbeResult{Index: i, Err: ErrNoDevice}
	})
	eng, err := New(Options{Space: space, Seed: 1, Workers: workers, Prober: prober, Store: scanstore.New()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes != space || rep.Misses != space {
		t.Fatalf("probes %d misses %d, want %d of each", rep.Probes, rep.Misses, space)
	}
	if got := peak.Load(); got != workers {
		t.Errorf("at most %d probes ran at once, want all %d workers busy", got, workers)
	}
}

// TestEngineAccounting: whether a sweep completes, meets faulted devices
// or is canceled mid-sweep, every probe it counts is a hit, a miss or a
// classified error, zscan_probes_total agrees with the report, and
// nothing is left in flight.
func TestEngineAccounting(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fleet    FleetOptions
		cancelAt int64 // the probe that cancels the sweep (0: none does)
	}{
		{"complete", FleetOptions{Space: 4096, Devices: 32, Seed: 1}, 0},
		{"faulted", FleetOptions{Space: 4096, Devices: 32, Seed: 2, FaultEvery: 2, FaultAction: faults.Reset}, 0},
		{"canceled", FleetOptions{Space: 1 << 16, Devices: 32, Seed: 3}, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet := testFleet(t, tc.fleet)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			prober := proberFunc(func(ctx context.Context, i uint64) ProbeResult {
				if calls.Add(1) == tc.cancelAt {
					cancel()
				}
				return fleet.Probe(ctx, i)
			})
			reg := telemetry.New()
			eng, err := New(Options{
				Space: tc.fleet.Space, Seed: tc.fleet.Seed, Prober: prober, Store: scanstore.New(), Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.Run(ctx)
			if canceled := tc.cancelAt > 0; canceled != (err != nil) {
				t.Fatalf("err = %v, canceled sweep = %v", err, canceled)
			}
			var errs uint64
			for _, n := range rep.Errors {
				errs += n
			}
			if rep.Probes != rep.Hits+rep.Misses+errs {
				t.Errorf("probes %d != hits %d + misses %d + errors %d", rep.Probes, rep.Hits, rep.Misses, errs)
			}
			switch {
			case tc.cancelAt > 0 && (rep.Probes < uint64(tc.cancelAt) || rep.Probes >= tc.fleet.Space):
				t.Errorf("canceled sweep probed %d, want from %d to under %d", rep.Probes, tc.cancelAt, tc.fleet.Space)
			case tc.cancelAt == 0 && rep.Probes != tc.fleet.Space:
				t.Errorf("probes = %d, want %d", rep.Probes, tc.fleet.Space)
			case tc.fleet.FaultEvery > 0 && errs == 0:
				t.Error("faulted sweep counted no errors")
			}
			if v := reg.CounterValue("zscan_probes_total"); uint64(v) != rep.Probes {
				t.Errorf("zscan_probes_total = %d, report says %d", v, rep.Probes)
			}
			if v := reg.GaugeValue("zscan_inflight"); v != 0 {
				t.Errorf("zscan_inflight = %g after run, want 0", v)
			}
		})
	}
}

// BenchmarkEngineSweep is the engine's own cost per probe: an unpaced
// SimFleet sweep of 2²⁰ addresses at the density of bench/'s
// scan_ingest fleet (walk, hand-off, probe and harvest; the walk and the
// probe alone are that workload's zscan.walk_ns and zscan.fleet_probe_ns).
func BenchmarkEngineSweep(b *testing.B) {
	const space = 1 << 20
	fleet, err := NewSimFleet(FleetOptions{Space: space, Devices: 750, Bits: 128, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var probes uint64
	for i := 0; i < b.N; i++ {
		eng, err := New(Options{Space: space, Seed: 1, Prober: fleet, Store: scanstore.New()})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := eng.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		probes += rep.Probes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(probes), "ns/probe")
}
