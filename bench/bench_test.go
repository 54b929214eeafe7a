package main

import (
	"context"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// toySizes run every workload's real code in well under a second each.
var toySizes = sizes{
	batchCorpus:  2048,
	serveCorpus:  2048,
	novelPool:    64,
	hotSet:       32,
	fleetDevices: 256,
	fleetSpace:   1 << 16,
	setups:       2,
	windows:      3,
	onion:        5,
	refSlice:     2 * time.Millisecond,
	refLong:      2 * time.Millisecond,
}

func toyConfig(t *testing.T, workload string, seed int64, trace bool) config {
	return config{
		workload: workload, seed: seed, seconds: 0.6, trace: trace, clients: min(runtime.NumCPU(), 2),
		sizes: toySizes, traceOut: t.TempDir() + "/trace.json",
	}
}

func runToy(t *testing.T, cfg config) *result {
	t.Helper()
	if cfg.workload == "scan_ingest" && cfg.clients < 2 {
		t.Skip("scan_ingest needs two cores")
	}
	res, err := runWorkload(context.Background(), cfg, t.TempDir())
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return res
}

func TestMillerRabinAgreesWithBig(t *testing.T) {
	sample := []uint64{0, 1, 2, 3, 4, 53, 59, 61 * 61, 1<<61 - 1, 1<<64 - 59, 1<<64 - 1,
		// Strong pseudoprimes to the first few prime bases.
		2047, 3215031751, 3825123056546413051, 318665857834031151}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		sample = append(sample, rng.Uint64()|1, rng.Uint64()>>uint(rng.Intn(48)))
	}
	primes := 0
	for _, n := range sample {
		want := new(big.Int).SetUint64(n).ProbablyPrime(20)
		if got := isPrime64(n); got != want {
			t.Fatalf("isPrime64(%d) = %v, big.Int.ProbablyPrime says %v", n, got, want)
		}
		if want {
			primes++
		}
	}
	if primes < 100 {
		t.Fatalf("sample held only %d primes", primes)
	}
	p := genPrime(rng)
	if p>>63 != 1 || !new(big.Int).SetUint64(p).ProbablyPrime(20) {
		t.Fatalf("genPrime returned %d", p)
	}
}

func TestCorpusGroundTruth(t *testing.T) {
	corpus := genCorpus(7, 4096)
	byPrime := map[uint64]int{}
	seen := map[string]bool{}
	weak := 0
	for _, k := range corpus {
		if seen[k.hex] {
			t.Fatalf("duplicate modulus %s", k.hex)
		}
		seen[k.hex] = true
		if got := new(big.Int).Mul(new(big.Int).SetUint64(k.p), new(big.Int).SetUint64(k.q)); got.Cmp(k.n) != 0 {
			t.Fatalf("modulus %s is not p*q", k.hex)
		}
		byPrime[k.p]++
		byPrime[k.q]++
		if k.weak {
			weak++
		}
	}
	for _, k := range corpus {
		if shares := byPrime[k.p] > 1 || byPrime[k.q] > 1; shares != k.weak {
			t.Fatalf("modulus %s: shares a prime = %v, marked weak = %v", k.hex, shares, k.weak)
		}
	}
	if weak != 40 {
		t.Fatalf("planted %d of 4096, want 40 (about 1%%)", weak)
	}
	novel := genNovel(7, 64, corpus)
	for i, k := range novel {
		if seen[k.hex] {
			t.Fatalf("novel key %s is in the corpus", k.hex)
		}
		if k.weak != (byPrime[k.p] > 0) || k.weak != (i%8 == 0) {
			t.Fatalf("novel key %d: weak=%v but its prime appears %d times in the corpus", i, k.weak, byPrime[k.p])
		}
	}
}

// inputDigests is everything a seed turns into, by digest.
func inputDigests(t *testing.T, seed int64) map[string]string {
	cfg := toyConfig(t, "", seed, false)
	corpus, p, _ := serveInputs(cfg)
	ft, err := genFleet(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fleet []string
	for _, d := range ft.ordered {
		fleet = append(fleet, d.req.key.hex)
	}
	return map[string]string{
		"batch":   streamDigest(hexesOf(genCorpus(seed, cfg.sizes.batchCorpus))),
		"corpus":  streamDigest(hexesOf(corpus)),
		"cold":    digestOf(coldStream(seed, p)),
		"hot":     digestOf(hotStream(seed, p, cfg.sizes.hotSet)),
		"members": digestOf(memberStream(seed, p)),
		"fleet":   streamDigest(fleet),
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, other := inputDigests(t, 2016), inputDigests(t, 2016), inputDigests(t, 2017)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different inputs:\n%v\n%v", a, b)
	}
	for name := range a {
		if a[name] == other[name] {
			t.Errorf("%s stream is the same for seeds 2016 and 2017", name)
		}
	}
}

func TestColdStreamDefeatsTheCache(t *testing.T) {
	corpus := genCorpus(3, 32768)
	p := makePools(3, corpus, genNovel(3, 2048, corpus))
	last := map[string]int{}
	for i, r := range coldStream(3, p)[:60000] {
		if at, ok := last[r.key.hex]; ok && i-at <= 4096 {
			t.Fatalf("%s key reused after %d requests; the 4,096-entry cache would answer it", classNames[r.class], i-at)
		}
		last[r.key.hex] = i
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {0.99, 9.91}, {1, 10}} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name               string
		a, b, noise, bound float64
		higher             bool
		wantWorse          float64
		want               string
	}{
		{"lower-better, 5% slower, inside bound", 100, 105, 0.02, 0.10, false, 0.05, "ok"},
		{"lower-better, 20% slower", 100, 120, 0.02, 0.10, false, 0.20, "regressed"},
		{"higher-better, 20% less", 1000, 800, 0.02, 0.10, true, 0.20, "regressed"},
		{"higher-better, 30% more", 1000, 1300, 0.02, 0.10, true, -0.30, "ok"},
		{"inside bound but too noisy to say", 100, 103, 0.15, 0.10, false, 0.03, "unresolved"},
		{"beyond bound but inside the noise", 100, 112, 0.15, 0.10, false, 0.12, "unresolved"},
		{"beyond bound and beyond the noise", 100, 130, 0.15, 0.10, false, 0.30, "regressed"},
	} {
		worse, verdict := judge(c.a, c.b, c.noise, c.bound, c.higher)
		if verdict != c.want || math.Abs(worse-c.wantWorse) > 1e-9 {
			t.Errorf("%s: got %+.3f %s, want %+.3f %s", c.name, worse, verdict, c.wantWorse, c.want)
		}
	}
	// Quartiles 9.5 and 11 around a median of 10, over the root of 3.
	if got, want := noiseOf(metric{Value: 10, Samples: []float64{9, 10, 12}}), 0.15/math.Sqrt(3); math.Abs(got-want) > 1e-9 {
		t.Errorf("noise = %v, want %v", got, want)
	}
}

func TestCompareFiles(t *testing.T) {
	write := func(name string, ops float64, failed int64) string {
		r := results{Workloads: map[string]*result{"serve_cold": {
			Attempted: 100, Failed: failed,
			Metrics: map[string]metric{mOps: {Value: ops, Unit: "1/s", Samples: []float64{ops * 0.99, ops, ops * 1.01}}},
		}}}
		path := t.TempDir() + "/" + name
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1000, 0)
	var out strings.Builder
	if err := compareFiles(&out, base, write("same.json", 990, 0)); err != nil {
		t.Errorf("1%% apart should compare ok: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, write("slow.json", 500, 0)); err == nil || !strings.Contains(out.String(), "regressed") {
		t.Errorf("half the rate should regress: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0.500") || !strings.Contains(out.String(), "base a") {
		t.Errorf("row should give the ratio and name its base:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, write("wrong.json", 1000, 1)); err == nil {
		t.Errorf("a rise in failed_share should regress:\n%s", out.String())
	}
}

// TestBenchmarkJSON holds the contract file to what the program prints.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, e2eNames) {
		t.Errorf("end_to_end lists %v, the program prints %v", e2e, e2eNames)
	}
	layers := map[string]string{}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(layers, layerUnits) {
		t.Errorf("per_layer and the traced pass differ:\n%v\n%v", layers, layerUnits)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, the program runs %v", names, workloads)
	}
}

func TestDriverLine(t *testing.T) {
	for _, trace := range []bool{false, true} {
		res := newResult(config{workload: "batch_gcd", trace: trace}, "batch", 1)
		res.count(10, 0, nil)
		res.Metrics[mOps] = scalar("1/s", 12.5, 3)
		res.layer("kernel.ops", 42, 1)
		var line struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(driverLine(res)), &line); err != nil {
			t.Fatal(err)
		}
		var got []string
		for name := range line.Metrics {
			got = append(got, name)
		}
		sort.Strings(got)
		want := append([]string(nil), passNames(trace)...)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) || !line.Correct || line.Attempted != 10 {
			t.Errorf("trace=%v: line %+v, want metrics %v", trace, line, want)
		}
		if trace && (line.Metrics["kernel.ops"].Value != 42 || line.Metrics["zscan.hits"].Unit != "count") {
			t.Errorf("traced line: %+v", line.Metrics)
		}
	}
}

func TestRefusesMoreClientsThanCores(t *testing.T) {
	err := run("serve_cold", 1, 1, false, runtime.NumCPU()+1, "", false, nil)
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("got %v, want a refusal", err)
	}
}

// TestWorkloadsEndToEnd runs every workload's untraced pass at toy size:
// every output right, every end-to-end metric present and non-zero.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		res := runToy(t, toyConfig(t, w, 2016, false))
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d failed of %d: %s", w, res.Failed, res.Attempted, res.FirstFail)
		}
		for _, name := range e2eNames {
			if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) {
				t.Errorf("%s: %s = %+v, want a positive value", w, name, m)
			}
		}
	}
}

// TestWrongOracleFails makes the generator lie about one key: the
// system's right answer must then be counted as a failure, and a run
// with failures must end in an error.
func TestWrongOracleFails(t *testing.T) {
	for _, w := range workloads {
		cfg := toyConfig(t, w, 2016, false)
		cfg.skewTruth = true
		res := runToy(t, cfg)
		if res.Failed == 0 || res.failedShare() <= 0 || res.FirstFail == "" {
			t.Errorf("%s: a disagreeing oracle went unnoticed (%d failed of %d)", w, res.Failed, res.Attempted)
		}
		if err := verdictOf(res); err != errFailed {
			t.Errorf("%s: run ends with %v, want errFailed", w, err)
		}
	}
}

// TestTracedPass runs every workload's traced pass twice: only declared
// layer metrics, a Chrome trace on disk, and counts that repeat exactly
// for the same seed.
func TestTracedPass(t *testing.T) {
	exact := map[string][]string{
		"batch_gcd":   {"kernel.ops", "kernel.jobs", "prodtree.nodes"},
		"serve_cold":  {},
		"routed_hot":  {"cluster.hops_per_check"},
		"scan_ingest": {"keycheck.ingest_nodes_built", "keycheck.ingest_touched_shards", "zscan.hits", "zscan.novel_moduli"},
	}
	for _, w := range workloads {
		cfg := toyConfig(t, w, 2016, true)
		a := runToy(t, cfg)
		if a.Failed != 0 {
			t.Errorf("%s: %d failed of %d: %s", w, a.Failed, a.Attempted, a.FirstFail)
		}
		for name := range a.Metrics {
			if _, ok := layerUnits[name]; !ok {
				t.Errorf("%s: undeclared metric %s in a traced pass", w, name)
			}
		}
		raw, err := os.ReadFile(cfg.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string
				Args map[string]any
			}
		}
		if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: Chrome trace has %d events (%v)", w, len(trace.TraceEvents), err)
		}
		if len(exact[w]) == 0 {
			continue
		}
		b := runToy(t, toyConfig(t, w, 2016, true))
		for _, name := range exact[w] {
			if a.Metrics[name].Value <= 0 || a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s = %v then %v for the same seed", w, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}
