package main

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"time"

	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/distgcd"
	"github.com/factorable/weakkeys/internal/kernel"
	"github.com/factorable/weakkeys/internal/prodtree"
)

// distSubsets is the k of the partitioned run (the paper's Figure 2
// algorithm at a k that fits two cores).
const distSubsets = 4

// batchSystem is batch_gcd's set-up product: the corpus deduplicated
// through a scan store, as the study pipeline's Dedup stage hands it to
// batch GCD, and the engine the computation is scheduled on.
type batchSystem struct {
	moduli []*big.Int
	truth  map[string]*key
	eng    *kernel.Engine
}

// verify counts a factoring result against the planted set: exactly the
// planted moduli, each with its shared prime as divisor.
func (s *batchSystem) verify(res *result, what string, got []batchgcd.Result) {
	found := make(map[string]bool, len(got))
	for _, r := range got {
		n := s.moduli[r.Index]
		k := s.truth[n.Text(16)]
		found[k.hex] = true
		ok := k.weak && r.Divisor.IsUint64() && r.Divisor.Uint64() == k.p
		res.check(ok, "%s: modulus %s reported with divisor %s, planted=%v shared prime %x", what, k.hex, r.Divisor.Text(16), k.weak, k.p)
	}
	for _, k := range s.truth {
		if !found[k.hex] {
			res.check(!k.weak, "%s: planted modulus %s not factored", what, k.hex)
		}
	}
}

func runBatchGCD(ctx context.Context, cfg config) (*result, error) {
	res := newResult(cfg, "batch", 1)
	t0 := time.Now()
	corpus := genCorpus(cfg.seed, cfg.sizes.batchCorpus)
	if cfg.skewTruth {
		corpus[0].weak = !corpus[0].weak
	}
	res.layer("bench.gen_s", time.Since(t0).Seconds(), 1)
	res.Inputs["corpus"] = streamDigest(hexesOf(corpus))
	raw := moduliOf(corpus)

	// This set-up is a tenth of a second, so it is repeated more often
	// than the serving ones for as steady a median, between short runs of
	// the reference kernel.
	sz := cfg.sizes
	sz.setups *= 3
	sz.refLong = sz.refSlice
	sys, setupS, err := repeatSetup(sz, func() (*batchSystem, error) {
		moduli, _ := storeOf(raw).DistinctModuli()
		s := &batchSystem{moduli: moduli, truth: make(map[string]*key, len(corpus)), eng: kernel.New(runtime.GOMAXPROCS(0))}
		for i := range corpus {
			s.truth[corpus[i].hex] = &corpus[i]
		}
		return s, nil
	}, func(s *batchSystem) { s.eng.Close() })
	if err != nil {
		return nil, err
	}
	defer sys.eng.Close()
	ectx := kernel.With(ctx, sys.eng)

	if cfg.trace {
		return res, traceBatchGCD(ectx, cfg, res, sys)
	}

	// Single-tree and partitioned repetitions alternate, so drift during
	// the run falls on both alike; the reference kernel runs between
	// them. A pair takes some 9 s on the reference box, so a pair is run
	// for every ten seconds asked for, and never fewer than two.
	reps := max(2, int(cfg.seconds)/10)
	var factorS, factorAt, distS, distAt []float64
	var track speedTrack
	track.mark(cfg.sizes.refLong)
	for i := 0; i < reps; i++ {
		t := time.Now()
		single, err := batchgcd.FactorCtx(ectx, sys.moduli)
		if err != nil {
			return nil, err
		}
		factorS = append(factorS, time.Since(t).Seconds())
		factorAt = append(factorAt, track.lap())
		sys.verify(res, "FactorCtx", single)

		t = time.Now()
		parts, _, err := distgcd.Run(ectx, sys.moduli, distgcd.Options{Subsets: distSubsets})
		if err != nil {
			return nil, err
		}
		distS = append(distS, time.Since(t).Seconds())
		distAt = append(distAt, track.lap())
		sys.verify(res, "distgcd.Run", parts)
		res.check(sameResults(single, parts), "FactorCtx and distgcd.Run disagree")
	}

	n := float64(len(sys.moduli))
	perS := func(secs []float64) []float64 {
		out := make([]float64, len(secs))
		for i, s := range secs {
			out[i] = n / s
		}
		return out
	}
	toMS := func(secs []float64) []float64 {
		out := make([]float64, len(secs))
		for i, s := range secs {
			out[i] = s * 1e3
		}
		return out
	}
	res.Metrics[mSetup] = setupS
	res.Metrics[mRSS] = scalar("MB", peakRSSMB(), 1)
	res.Metrics[mOps] = ratesAt(factorAt, "1/s", "moduli_per_s", reps, perS(factorS))
	res.Metrics[mP50] = timesAt(factorAt, "ms", "factor_rep_ms", reps, toMS(factorS))
	// So few repetitions support no percentile; the slowest is printed
	// without a bound.
	slowest := timesAt(factorAt, "ms", "factor_slowest_rep_ms", reps, toMS(factorS))
	slowest.Value, slowest.Raw = maxOf(slowest.Samples), maxOf(factorS)*1e3
	res.Metrics[mMax] = slowest
	res.Metrics[mSide] = ratesAt(distAt, "1/s", "partitioned_moduli_per_s", reps, perS(distS))
	res.Metrics[mSideP50] = timesAt(distAt, "ms", "partitioned_rep_ms", reps, toMS(distS))
	return res, nil
}

// sameResults reports whether two factoring runs named the same moduli
// with the same divisors.
func sameResults(a, b []batchgcd.Result) bool {
	if len(a) != len(b) {
		return false
	}
	divs := make(map[int]*big.Int, len(a))
	for _, r := range a {
		divs[r.Index] = r.Divisor
	}
	for _, r := range b {
		d, ok := divs[r.Index]
		if !ok || d.Cmp(r.Divisor) != 0 {
			return false
		}
	}
	return true
}

// traceBatchGCD times each layer of the offline computation once, from
// outside: the tree build and remainder tree on their own, the whole
// FactorCtx, the same on a one-worker engine, and the partitioned run
// with the cost ledger it returns. FactorCtx's own GCD sweep is not
// reported: it is some 65 ms of 4 s here, less than the two tree passes
// it would have to be subtracted from differ between calls.
func traceBatchGCD(ctx context.Context, cfg config, res *result, sys *batchSystem) error {
	tr := newTracing()
	tr.begin("batch_gcd")
	// One discarded pass first, so every timed call below finds the
	// engine's arenas and the heap as warm as the others do; and every
	// duration is corrected by the machine's speed while it ran, so that
	// kernel.speedup is a ratio of like with like.
	if _, err := batchgcd.FactorCtx(ctx, sys.moduli); err != nil {
		return err
	}
	var track speedTrack
	track.mark(cfg.sizes.refLong)
	var speeds []float64
	timed := func(layer string, f func()) time.Duration {
		d := tr.call(layer, "", f)
		speeds = append(speeds, track.lap())
		return time.Duration(float64(d) * speeds[len(speeds)-1])
	}

	var tree *prodtree.Tree
	var err error
	build := timed("prodtree.NewCtx", func() { tree, err = prodtree.NewCtx(ctx, sys.moduli) })
	if err != nil {
		return err
	}
	remainder := timed("prodtree.RemainderTreeSquaredCtx", func() { _, err = tree.RemainderTreeSquaredCtx(ctx, tree.Root()) })
	if err != nil {
		return err
	}
	res.layer("prodtree.build_s", build.Seconds(), 1)
	res.layer("prodtree.remainder_s", remainder.Seconds(), 1)
	res.layer("prodtree.tree_mb", float64(tree.Bytes())/1e6, 1)
	res.layer("prodtree.nodes", float64(tree.Nodes()), 1)
	tree = nil

	// The kernel ledger covers exactly one FactorCtx and one
	// distgcd.Run on the bench-owned engine.
	before := sys.eng.Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var single []batchgcd.Result
	factor := timed("batchgcd.FactorCtx", func() { single, err = batchgcd.FactorCtx(ctx, sys.moduli) })
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	sys.verify(res, "FactorCtx", single)
	res.layer("batchgcd.factor_s", factor.Seconds(), 1)
	res.layer("batchgcd.mallocs", float64(ms1.Mallocs-ms0.Mallocs), 1)

	var parts []batchgcd.Result
	var st distgcd.Stats
	timed("distgcd.Run", func() { parts, st, err = distgcd.Run(ctx, sys.moduli, distgcd.Options{Subsets: distSubsets}) })
	if err != nil {
		return err
	}
	sys.verify(res, "distgcd.Run", parts)
	res.check(sameResults(single, parts), "FactorCtx and distgcd.Run disagree")
	res.layer("distgcd.wall_s", st.Wall.Seconds(), 1)
	res.layer("distgcd.cpu_s", st.CPU.Seconds(), 1)
	res.layer("distgcd.peak_node_mb", float64(st.Bytes)/1e6, 1)

	after := sys.eng.Stats()
	res.layer("kernel.jobs", float64(after.Jobs-before.Jobs), 1)
	res.layer("kernel.inline_jobs", float64(after.InlineJobs-before.InlineJobs), 1)
	res.layer("kernel.ops", float64(after.Ops-before.Ops), 1)
	res.layer("kernel.chunks", float64(after.Chunks-before.Chunks), 1)
	res.layer("kernel.chunk_wait_ms", ms(after.ChunkWait-before.ChunkWait), 1)
	hits, misses := after.ArenaHits-before.ArenaHits, after.ArenaMisses-before.ArenaMisses
	res.layer("kernel.arena_hit_share", float64(hits)/float64(hits+misses), int(hits+misses))

	serialEng := kernel.New(1)
	defer serialEng.Close()
	var serialRes []batchgcd.Result
	serial := timed("batchgcd.FactorCtx/serial", func() { serialRes, err = batchgcd.FactorCtx(kernel.With(ctx, serialEng), sys.moduli) })
	if err != nil {
		return err
	}
	res.check(sameResults(single, serialRes), "serial and parallel FactorCtx disagree")
	res.layer("batchgcd.serial_factor_s", serial.Seconds(), 1)
	res.layer("kernel.speedup", serial.Seconds()/factor.Seconds(), 1)

	// The harness records no spans inside the timed calls above, so the
	// traced rate is the untraced one: the overhead is zero by
	// construction here and measured only where spans wrap requests.
	res.layer("bench.trace_overhead_share", 0, 1)
	res.layer("bench.machine_speed", median(speeds), len(speeds))
	tr.end()
	if err := tr.tracer.WriteFile(cfg.traceOut); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
