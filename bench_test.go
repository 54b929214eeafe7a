// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablation benches DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// The Table/Figure benches measure the cost of regenerating each result
// from a shared, cached study (the study itself is timed by
// BenchmarkStudyPipeline); Figure 2's bench is the experiment itself — a
// subset-count sweep of the cluster-partitioned batch GCD with total-CPU
// and peak-memory metrics reported alongside wall-clock time.
package weakkeys_test

import (
	"context"
	"io"
	"math/big"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/core"
	"github.com/factorable/weakkeys/internal/devices"
	"github.com/factorable/weakkeys/internal/distgcd"
	"github.com/factorable/weakkeys/internal/numtheory"
	"github.com/factorable/weakkeys/internal/population"
	"github.com/factorable/weakkeys/internal/prodtree"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
	"github.com/factorable/weakkeys/internal/weakrsa"
	"github.com/factorable/weakkeys/internal/zscan"
)

// ---- shared fixtures -------------------------------------------------

var (
	studyOnce sync.Once
	study     *core.Study
	studyErr  error
)

// benchStudy returns a cached 10%-scale study (every pipeline stage is
// identical to full scale).
func benchStudy(b *testing.B) *core.Study {
	b.Helper()
	studyOnce.Do(func() {
		study, studyErr = core.Run(context.Background(), core.Options{
			Seed: 2016, KeyBits: 128, Scale: 0.10, Subsets: 4, OtherProtocols: true,
		})
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return study
}

var (
	corpusOnce sync.Once
	corpus4k   []*big.Int
)

// benchCorpus returns a cached 4096-modulus corpus with ~2% shared-prime
// keys, the workload for the factoring benches.
func benchCorpus(b *testing.B) []*big.Int {
	b.Helper()
	corpusOnce.Do(func() {
		f := population.NewKeyFactory(1, 256)
		for i := 0; i < 4096; i++ {
			var k *weakrsa.PrivateKey
			var err error
			if i%50 == 0 {
				k, err = f.SharedPrime("bench", weakrsa.PrimeNaive)
			} else {
				k, err = f.Healthy()
			}
			if err != nil {
				panic(err)
			}
			corpus4k = append(corpus4k, k.N)
		}
	})
	return corpus4k
}

// ---- Tables ----------------------------------------------------------

func BenchmarkTable1DatasetSummary(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Table(io.Discard, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2VendorResponses(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Table(io.Discard, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3ScanComparison(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Table(io.Discard, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Protocols(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Table(io.Discard, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5OpenSSLFingerprint(b *testing.B) {
	// The per-prime test at the heart of Table 5: sieve p-1 against the
	// first 2048 primes.
	f := population.NewKeyFactory(5, 256)
	k, err := f.Healthy()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		numtheory.SatisfiesOpenSSLProperty(k.P)
	}
}

// ---- Figures ---------------------------------------------------------

func BenchmarkFigure1AggregateSeries(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Figure(io.Discard, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2PartitionedVsPlain is the Figure 2 experiment: the
// k-subset partitioned batch GCD versus the single tree, over the same
// corpus. Alongside ns/op it reports the total CPU work and the peak
// per-node tree footprint — the two quantities the paper trades against
// wall clock (1089 CPU-hours and 70-100 GB/node for 86 wall-minutes,
// versus 500 minutes and >500 GB on one machine).
func BenchmarkFigure2PartitionedVsPlain(b *testing.B) {
	moduli := benchCorpus(b)
	b.Run("singletree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := batchgcd.Factor(moduli); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, k := range []int{2, 4, 8, 16} {
		b.Run(bname("k", k), func(b *testing.B) {
			var cpu, mem int64
			for i := 0; i < b.N; i++ {
				_, stats, err := distgcd.Run(context.Background(), moduli, distgcd.Options{Subsets: k})
				if err != nil {
					b.Fatal(err)
				}
				cpu += stats.CPU.Nanoseconds()
				mem = stats.Bytes
			}
			b.ReportMetric(float64(cpu)/float64(b.N), "cpu-ns/op")
			b.ReportMetric(float64(mem), "peak-node-bytes")
		})
	}
}

func benchFigure(b *testing.B, n int) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Figure(io.Discard, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3Juniper(b *testing.B)          { benchFigure(b, 3) }
func BenchmarkFigure4Innominate(b *testing.B)       { benchFigure(b, 4) }
func BenchmarkFigure5IBM(b *testing.B)              { benchFigure(b, 5) }
func BenchmarkFigure6Cisco(b *testing.B)            { benchFigure(b, 6) }
func BenchmarkFigure7CiscoEOL(b *testing.B)         { benchFigure(b, 7) }
func BenchmarkFigure8HP(b *testing.B)               { benchFigure(b, 8) }
func BenchmarkFigure9NoResponse(b *testing.B)       { benchFigure(b, 9) }
func BenchmarkFigure10NewlyVulnerable(b *testing.B) { benchFigure(b, 10) }

// ---- Core algorithm scaling ------------------------------------------

func BenchmarkBatchGCD(b *testing.B) {
	moduli := benchCorpus(b)
	for _, n := range []int{256, 1024, 4096} {
		sub := moduli[:n]
		b.Run(bname("n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := batchgcd.Factor(sub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNaivePairwiseGCD(b *testing.B) {
	moduli := benchCorpus(b)
	for _, n := range []int{256, 1024} {
		sub := moduli[:n]
		b.Run(bname("n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := batchgcd.FactorPairwise(sub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkProductTree(b *testing.B) {
	moduli := benchCorpus(b)
	for _, n := range []int{1024, 4096} {
		sub := moduli[:n]
		b.Run(bname("n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prodtree.New(sub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRemainderTreeVariants is the DESIGN.md ablation: the squared
// remainder tree (Bernstein's P mod N² trick, the oracle; its GCD sweep
// is not timed) against the divisor pass batch GCD runs, one descent of
// the cofactor sum the build carried up with the products (its cost is in
// BenchmarkProductTree), pruned to one GCD per node of 16 limbs.
func BenchmarkRemainderTreeVariants(b *testing.B) {
	moduli := benchCorpus(b)[:1024]
	tree, err := prodtree.New(moduli)
	if err != nil {
		b.Fatal(err)
	}
	root := tree.Root()
	b.Run("squared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tree.RemainderTreeSquaredCtx(context.Background(), root); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("divisors", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tree.DivisorsCtx(context.Background(), tree.CofactorSum()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSizeSweep is the first cut of ROADMAP item 5's size sweep:
// one batch GCD per size and width, split into its passes. build (the
// products with their derivatives) and divisors are timed around the two
// Batch calls; reciprocal, down (the descent to the pruning level) and
// prune (the GCDs there and below) come from the spans prodtree opens
// under a tracer. peak_rss_mb is the
// process high-water mark, so run one sub-benchmark per process (see
// EXPERIMENTS.md). Inputs are seeded random odd integers with a shared
// prime planted in every 64th: the arithmetic cost depends on operand
// widths only, and generating 2^17 512-bit primes would dwarf the run.
// Random integers also share small factors, so nearly every modulus is
// reported; the check is that each planted prime is among what is found.
func BenchmarkSizeSweep(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		for _, bits := range []int{128, 512, 1024} {
			b.Run(bname("n", n)+"/"+bname("bits", bits), func(b *testing.B) {
				moduli, planted := sweepModuli(n, bits)
				b.ResetTimer()
				pass := map[string]float64{}
				for i := 0; i < b.N; i++ {
					tracer := telemetry.NewTracer()
					root := tracer.Start("sweep")
					ctx := telemetry.ContextWithSpan(context.Background(), root)
					t0 := time.Now()
					batch, err := batchgcd.NewBatch(ctx, moduli)
					if err != nil {
						b.Fatal(err)
					}
					t1 := time.Now()
					divs, err := batch.OwnDivisors(ctx)
					if err != nil {
						b.Fatal(err)
					}
					pass["build_s"] += t1.Sub(t0).Seconds()
					pass["divisors_s"] += time.Since(t1).Seconds()
					for _, ev := range tracer.Events() {
						switch ev.Name {
						case "prodtree.reciprocal":
							pass["reciprocal_s"] += ev.Dur / 1e6
						case "prodtree.down":
							pass["down_s"] += ev.Dur / 1e6
						case "prodtree.prune":
							pass["prune_s"] += ev.Dur / 1e6
						}
					}
					for k, p := range planted {
						for _, d := range []*big.Int{divs[128*k], divs[128*k+64]} {
							if d == nil || new(big.Int).Mod(d, p).Sign() != 0 {
								b.Fatalf("planted prime %d not found", k)
							}
						}
					}
				}
				for name, s := range pass {
					b.ReportMetric(s/float64(b.N), name)
				}
				b.ReportMetric(peakRSSMB(), "peak_rss_mb")
			})
		}
	}
}

// BenchmarkShortMod is the novel check's per-shard step, P mod N: an
// operand as long as the product of `leaves` bits-wide moduli reduced by
// one such modulus, through big.Int.QuoRem into a reused quotient (what
// Snapshot.Check did) and through prodtree.Reducer. 4,096 leaves is one
// shard of the 32k-key bench corpus; 32,768 a corpus eight times that.
func BenchmarkShortMod(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, bits := range []int{128, 1024, 2048} {
		for _, leaves := range []int{4096, 32768} {
			x := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits*leaves)))
			x.SetBit(x, bits*leaves-1, 1)
			n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
			n.SetBit(n, bits-1, 1).SetBit(n, 0, 1)
			name := bname("bits", bits) + "/" + bname("leaves", leaves)
			q, r, want := new(big.Int), new(big.Int), new(big.Int).Mod(x, n)
			b.Run(name+"/quorem", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					q.QuoRem(x, n, r)
				}
			})
			b.Run(name+"/reducer", func(b *testing.B) {
				b.ReportAllocs()
				// One Reducer per modulus, as a check's pooled Reducer
				// serves every shard: constants and scratch are warm.
				red := prodtree.NewReducer(n)
				for i := 0; i < b.N; i++ {
					red.Mod(r, x)
				}
				if r.Cmp(want) != 0 {
					b.Fatalf("Reducer %x, QuoRem %x", r, want)
				}
			})
		}
	}
}

// sweepModuli returns n odd bits-wide integers, distinct with
// overwhelming probability; moduli 128k and 128k+64 share planted[k], a
// bits/2-wide prime.
func sweepModuli(n, bits int) (moduli, planted []*big.Int) {
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(bits)))
	half := new(big.Int).Lsh(big.NewInt(1), uint(bits/2))
	odd := func() *big.Int {
		v := new(big.Int).Rand(rng, half)
		return v.SetBit(v, 0, 1).SetBit(v, bits/2-1, 1)
	}
	moduli = make([]*big.Int, n)
	for i := range moduli {
		p := odd()
		switch i % 128 {
		case 0:
			for !p.ProbablyPrime(8) {
				p = odd()
			}
			planted = append(planted, p)
		case 64:
			p = planted[len(planted)-1]
		}
		moduli[i] = new(big.Int).Mul(p, odd())
	}
	return moduli, planted
}

// peakRSSMB reads the process's resident high-water mark (0 where
// /proc is not available).
func peakRSSMB() float64 {
	data, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// BenchmarkProductTreeLeafBatch is the DESIGN.md ablation: pre-multiplying
// leaf pairs before building the tree halves the node count at the cost
// of bigger leaves.
func BenchmarkProductTreeLeafBatch(b *testing.B) {
	moduli := benchCorpus(b)[:2048]
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prodtree.New(moduli); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prebatched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batched := make([]*big.Int, 0, len(moduli)/2)
			for j := 0; j+1 < len(moduli); j += 2 {
				batched = append(batched, new(big.Int).Mul(moduli[j], moduli[j+1]))
			}
			if _, err := prodtree.New(batched); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Substrate benches -------------------------------------------------

func BenchmarkKeygen(b *testing.B) {
	for _, tc := range []struct {
		name string
		gen  weakrsa.PrimeGen
	}{{"naive", weakrsa.PrimeNaive}, {"openssl", weakrsa.PrimeOpenSSL}} {
		b.Run(tc.name, func(b *testing.B) {
			f := population.NewKeyFactory(int64(b.N), 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.SharedPrime("pool", tc.gen); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTCPProbeWorkers is the DESIGN.md ablation: certificate-harvest
// throughput versus probe-worker count, zscan.Engine + zscan.TCPProber
// over a loopback device fleet.
func BenchmarkTCPProbeWorkers(b *testing.B) {
	f := population.NewKeyFactory(3, 128)
	var targets []string
	var servers []*devices.Server
	for i := 0; i < 32; i++ {
		k, err := f.Healthy()
		if err != nil {
			b.Fatal(err)
		}
		cert, err := certs.SelfSigned(big.NewInt(int64(i+1)), certs.Name{CommonName: "bench"},
			time.Unix(0, 0), time.Unix(1<<40, 0), nil, k.N, k.E, k.D)
		if err != nil {
			b.Fatal(err)
		}
		srv := &devices.Server{Cert: cert}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(ln)
		servers = append(servers, srv)
		targets = append(targets, ln.Addr().String())
	}
	b.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})
	for _, w := range []int{1, 4, 16} {
		b.Run(bname("workers", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := zscan.New(zscan.Options{
					Space: uint64(len(targets)), Workers: w, Store: scanstore.New(),
					Prober: &zscan.TCPProber{Addr: func(i uint64) (string, bool) { return targets[i], true }},
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := eng.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if rep.Stored != len(targets) {
					b.Fatalf("stored %d of %d: %v", rep.Stored, len(targets), rep.Errors)
				}
			}
		})
	}
}

func BenchmarkStudyPipeline(b *testing.B) {
	// The full pipeline at 5% scale: simulation, scanning, batch GCD,
	// fingerprinting, analysis.
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(context.Background(), core.Options{
			Seed: int64(i), KeyBits: 128, Scale: 0.05, Subsets: 4,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func bname(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
