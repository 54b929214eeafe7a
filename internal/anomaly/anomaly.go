// Package anomaly finds the weak-key classes that batch GCD alone
// misses. The Tor-relays study ("Major key alert!") showed a corpus can
// carry moduli that are individually factorable or operationally
// compromised without sharing a prime with anything: the same modulus
// serving distinct identities (operators sharing or stealing a key, or
// a middlebox interposing one certificate on many hosts), non-standard
// public exponents (e = 1 means no encryption at all; even e is not
// invertible; tiny e invites low-exponent attacks), moduli whose primes
// were drawn too close together (Fermat-factorable, a "When RSA Fails"
// prime-selection flaw), and moduli carrying small prime factors
// (broken primality testing or bit corruption).
//
// The package provides the offline analysis pass over a corpus
// (Analyze), and the bounded per-modulus probes (Probe) and exponent
// classifier (ClassifyExponent) that the online /v1/check path reuses to
// flag the same classes live.
package anomaly

import (
	"context"
	"fmt"
	"log/slog"
	"math/big"
	"sort"
	"sync"
	"time"

	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/kernel"
	"github.com/factorable/weakkeys/internal/numtheory"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// ExponentClass labels one public exponent for the census.
type ExponentClass string

const (
	// ExponentOK is a conventional exponent: odd, at least 65537, and
	// not absurdly large.
	ExponentOK ExponentClass = "ok"
	// ExponentOne is e = 1: "encryption" is the identity function and
	// the plaintext is on the wire.
	ExponentOne ExponentClass = "one"
	// ExponentEven is an even e, which has no inverse mod φ(N): the key
	// can never decrypt and usually signals a broken generator.
	ExponentEven ExponentClass = "even"
	// ExponentSmall is an odd e below 65537 (3, 5, 17, ...): legal RSA
	// but exposed to low-exponent and related-message attacks, and a
	// reliable implementation fingerprint.
	ExponentSmall ExponentClass = "small"
	// ExponentOversized is an exponent wider than 32 bits, seen in the
	// wild from confused generators that swap fields or emit garbage.
	ExponentOversized ExponentClass = "oversized"
	// ExponentNonPositive is e <= 0, which is not an RSA exponent at
	// all.
	ExponentNonPositive ExponentClass = "nonpositive"
)

// oversizedBits is the exponent width beyond which the census calls an
// exponent oversized (the Tor study found exponents past 2^32).
const oversizedBits = 32

// ClassifyExponent labels a public exponent. The argument is a big.Int
// because parsed certificates in the wild carry exponents well past
// int64; the census must not truncate them.
func ClassifyExponent(e *big.Int) ExponentClass {
	switch {
	case e == nil || e.Sign() <= 0:
		return ExponentNonPositive
	case e.Cmp(bigOne) == 0:
		return ExponentOne
	case e.Bit(0) == 0:
		return ExponentEven
	case e.BitLen() > oversizedBits:
		return ExponentOversized
	case e.Cmp(big65537) < 0:
		return ExponentSmall
	default:
		return ExponentOK
	}
}

var (
	bigOne   = big.NewInt(1)
	big65537 = big.NewInt(65537)
)

// Census tallies exponents by class.
type Census struct {
	Total   int                   `json:"total"`
	Classes map[ExponentClass]int `json:"classes,omitempty"`
}

// Add classifies e, counts it, and returns the class.
func (c *Census) Add(e *big.Int) ExponentClass {
	cls := ClassifyExponent(e)
	if c.Classes == nil {
		c.Classes = make(map[ExponentClass]int)
	}
	c.Total++
	c.Classes[cls]++
	return cls
}

// Anomalous counts the census entries outside ExponentOK.
func (c *Census) Anomalous() int {
	n := 0
	for cls, count := range c.Classes {
		if cls != ExponentOK {
			n += count
		}
	}
	return n
}

// ProbeClass labels a probe hit.
type ProbeClass string

const (
	// ProbeNone: the probes found nothing within their budgets. Not a
	// proof of strength — only that this budget cannot break the key.
	ProbeNone ProbeClass = ""
	// ProbeFermatWeak: the primes are close enough that Fermat's method
	// split the modulus within the ascent budget.
	ProbeFermatWeak ProbeClass = "fermat_weak"
	// ProbeSmallFactor: trial division or Pollard rho pulled out a
	// nontrivial factor within the step budget.
	ProbeSmallFactor ProbeClass = "small_factor"
)

// Default probe budgets: large enough to catch every naturally
// occurring instance of the flaw classes (close primes land in a
// handful of Fermat steps; small factors fall to trial division almost
// immediately), small enough for the serving path at the widths it
// sees. A probe that exhausts all of them on a clean modulus costs about
// 0.10 ms at 128 bits, 2.7 ms at 512, 9 ms at 1024, 33 ms at 2048 and
// 150 ms at 4096 (BenchmarkProbeFactor medians on a shared 2-core Xeon
// that read the code before machine-word trial division, Fermat tables
// and rho's word GCD at 0.15, 3.1, 10, 33 and 157 ms; EXPERIMENTS.md
// has the tables).
const (
	DefaultFermatSteps = 512
	DefaultTrialPrimes = 128
	DefaultRhoSteps    = 256
)

// Probe bundles the bounded per-modulus factoring probes at the default
// budgets: trial division by the first DefaultTrialPrimes primes, a
// Fermat ascent over DefaultFermatSteps values of a from ceil(sqrt(N))
// upward, and up to eight Pollard rho runs (one per polynomial constant)
// of DefaultRhoSteps iterations each.
type Probe struct{}

// Factor runs the probes against n in cost order — trial division,
// Fermat ascent, Pollard rho — and returns the class of the first hit
// with a nontrivial split pHit <= qHit of n (qHit may be composite for a
// small-factor hit). ProbeNone with nil factors means every budget was
// exhausted.
func (Probe) Factor(n *big.Int) (cls ProbeClass, pHit, qHit *big.Int) {
	if n == nil || n.Sign() <= 0 || n.BitLen() < 2 || numtheory.ProbePrime(n) {
		return ProbeNone, nil, nil
	}
	if small, _ := numtheory.SmallFactors(n, DefaultTrialPrimes); len(small) > 0 {
		// n is composite and the prime divides it: SplitModulus cannot fail.
		sp, sq, _ := batchgcd.SplitModulus(n, new(big.Int).SetUint64(small[0].Prime))
		return ProbeSmallFactor, sp, sq
	}
	// n is known composite from here on: the probes skip the primality
	// test their public entry points open with.
	if sp, sq, fermat := numtheory.SplitComposite(n, DefaultFermatSteps, DefaultRhoSteps); sp != nil {
		if fermat {
			return ProbeFermatWeak, sp, sq
		}
		return ProbeSmallFactor, sp, sq
	}
	return ProbeNone, nil, nil
}

// Identities returns the distinct identities under which the store
// observed the modulus: the subjects of the certificates serving it
// when any exist, else the distinct IPs that served the bare key. Two
// or more identities on one modulus is the shared-modulus signal — the
// paper's SSH-middlebox detector (one key, many hosts) and the
// Tor-relays shared-modulus graph both reduce to this count.
func Identities(store *scanstore.Store, modKey string) []string {
	set := make(map[string]bool)
	for _, c := range store.CertsWithModulus(modKey) {
		set[c.Subject.String()] = true
	}
	if len(set) == 0 {
		for _, ip := range store.IPsServingModulus(modKey, "") {
			set[ip] = true
		}
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// IdentityCounts returns the distinct-identity count for every modulus
// key the store observed under two or more identities, with the same
// semantics as Identities (cert subjects; IP fallback for certless
// keys) in one pass over the store — per-modulus Identities calls are
// linear in the store and would make a corpus-wide sweep quadratic.
func IdentityCounts(store *scanstore.Store) map[string]int {
	subjects := make(map[string]map[string]bool)
	for _, c := range store.DistinctCerts() {
		mk := c.ModulusKey()
		if subjects[mk] == nil {
			subjects[mk] = make(map[string]bool)
		}
		subjects[mk][c.Subject.String()] = true
	}
	var zeroFP [32]byte
	bareIPs := make(map[string]map[string]bool)
	for _, r := range store.Records() {
		if r.CertFP != zeroFP || subjects[r.ModKey] != nil {
			continue
		}
		if bareIPs[r.ModKey] == nil {
			bareIPs[r.ModKey] = make(map[string]bool)
		}
		bareIPs[r.ModKey][r.IP] = true
	}
	out := make(map[string]int)
	for mk, set := range subjects {
		if len(set) >= 2 {
			out[mk] = len(set)
		}
	}
	for mk, set := range bareIPs {
		if len(set) >= 2 && subjects[mk] == nil {
			out[mk] = len(set)
		}
	}
	return out
}

// SharedModulus is one modulus observed under distinct identities.
type SharedModulus struct {
	ModulusHex string `json:"modulus_hex"`
	// Identities lists the distinct identities (capped at a sample of
	// maxIdentitySample); Count is the full number.
	Identities []string `json:"identities,omitempty"`
	Count      int      `json:"count"`
	// Hosts is the number of distinct IPs ever observed serving the
	// modulus, over every protocol.
	Hosts int `json:"hosts"`
}

// ProbeFinding is one modulus a probe broke.
type ProbeFinding struct {
	ModulusHex string `json:"modulus_hex"`
	Bits       int    `json:"bits"`
	FactorPHex string `json:"factor_p_hex"`
	FactorQHex string `json:"factor_q_hex"`
}

// maxIdentitySample bounds the identities listed per shared modulus.
const maxIdentitySample = 8

// maxFindings bounds each finding list in the report; the *Count fields
// always carry the complete totals.
const maxFindings = 256

// Report is the result of one corpus anomaly pass.
type Report struct {
	// Moduli is the number of distinct corpus moduli analyzed; Certs the
	// number of distinct certificates behind the exponent census.
	Moduli int `json:"moduli"`
	Certs  int `json:"certs"`
	// SharedCount / FermatWeakCount / SmallFactorCount are the complete
	// totals; the lists below are capped at maxFindings entries each.
	SharedCount      int             `json:"shared_count"`
	FermatWeakCount  int             `json:"fermat_weak_count"`
	SmallFactorCount int             `json:"small_factor_count"`
	SharedModuli     []SharedModulus `json:"shared_moduli,omitempty"`
	FermatWeak       []ProbeFinding  `json:"fermat_weak,omitempty"`
	SmallFactor      []ProbeFinding  `json:"small_factor,omitempty"`
	Exponents        Census          `json:"exponents"`
	Elapsed          time.Duration   `json:"elapsed_ns"`
}

// Config configures Analyze.
type Config struct {
	// Store is the corpus to analyze (required).
	Store *scanstore.Store
	// Metrics receives anomaly_* counters and gauges (nil disables).
	Metrics *telemetry.Registry
	// Events receives the structured pass summary (nil disables).
	Events *telemetry.EventLog
}

// Analyze runs the full anomaly pass over a corpus: the shared-modulus
// graph, the exponent census over every distinct certificate, and the
// Fermat and small-factor probes over every distinct modulus, fanned
// out on the shared kernel pool. The probes are embarrassingly parallel
// and dominate the cost; everything else is one pass over the store.
func Analyze(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("anomaly: nil store")
	}
	start := time.Now()
	moduli, keys := cfg.Store.DistinctModuli()
	rep := &Report{Moduli: len(moduli)}

	// Shared-modulus graph: one bulk pass counts identities per modulus;
	// the listed sample (at most maxFindings entries) pays for the
	// per-modulus identity and host lookups.
	counts := IdentityCounts(cfg.Store)
	for i, key := range keys {
		n, ok := counts[key]
		if !ok {
			continue
		}
		rep.SharedCount++
		if len(rep.SharedModuli) < maxFindings {
			sm := SharedModulus{
				ModulusHex: moduli[i].Text(16),
				Count:      n,
				Hosts:      len(cfg.Store.IPsServingModulus(key, "")),
			}
			ids := Identities(cfg.Store, key)
			if len(ids) > maxIdentitySample {
				ids = ids[:maxIdentitySample]
			}
			sm.Identities = ids
			rep.SharedModuli = append(rep.SharedModuli, sm)
		}
	}

	// Exponent census over the distinct certificates.
	for _, c := range cfg.Store.DistinctCerts() {
		rep.Certs++
		rep.Exponents.Add(big.NewInt(int64(c.E)))
	}

	// Factoring probes at the default budgets, fanned out on the kernel
	// pool.
	var probe Probe
	type hit struct {
		idx  int
		cls  ProbeClass
		p, q *big.Int
	}
	var mu sync.Mutex
	var hits []hit
	eng := kernel.FromContext(ctx)
	if err := eng.Run(ctx, len(moduli), func(i int, _ *kernel.Arena) {
		cls, p, q := probe.Factor(moduli[i])
		if cls == ProbeNone {
			return
		}
		mu.Lock()
		hits = append(hits, hit{idx: i, cls: cls, p: p, q: q})
		mu.Unlock()
	}); err != nil {
		return nil, fmt.Errorf("anomaly: probe sweep cancelled: %w", err)
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].idx < hits[j].idx })
	for _, h := range hits {
		f := ProbeFinding{
			ModulusHex: moduli[h.idx].Text(16),
			Bits:       moduli[h.idx].BitLen(),
			FactorPHex: h.p.Text(16),
			FactorQHex: h.q.Text(16),
		}
		switch h.cls {
		case ProbeFermatWeak:
			rep.FermatWeakCount++
			if len(rep.FermatWeak) < maxFindings {
				rep.FermatWeak = append(rep.FermatWeak, f)
			}
		case ProbeSmallFactor:
			rep.SmallFactorCount++
			if len(rep.SmallFactor) < maxFindings {
				rep.SmallFactor = append(rep.SmallFactor, f)
			}
		}
	}
	rep.Elapsed = time.Since(start)

	if reg := cfg.Metrics; reg != nil {
		reg.Gauge("anomaly_shared_moduli").Set(float64(rep.SharedCount))
		reg.Gauge("anomaly_fermat_weak").Set(float64(rep.FermatWeakCount))
		reg.Gauge("anomaly_small_factor").Set(float64(rep.SmallFactorCount))
		for cls, count := range rep.Exponents.Classes {
			reg.Gauge(fmt.Sprintf(`anomaly_exponents{class="%s"}`, cls)).Set(float64(count))
		}
		reg.Histogram("anomaly_analyze_seconds", telemetry.DurationBuckets).ObserveDuration(rep.Elapsed)
	}
	cfg.Events.Info(ctx, "anomaly analysis complete",
		slog.Int("moduli", rep.Moduli),
		slog.Int("shared", rep.SharedCount),
		slog.Int("fermat_weak", rep.FermatWeakCount),
		slog.Int("small_factor", rep.SmallFactorCount),
		slog.Int("anomalous_exponents", rep.Exponents.Anomalous()),
		slog.Duration("elapsed", rep.Elapsed))
	return rep, nil
}
