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
// (Analyze), and the per-modulus probe (Probe) and exponent classifier
// (ClassifyExponent) that the online /v1/check path reuses to flag the
// same classes live. The probe's small-factor step is the batch-GCD
// question asked against one fixed product: n has a prime factor below
// B = 2²⁰ exactly when gcd(n, P_B mod n) > 1, P_B the product of the
// primes below B (Bernstein, "How to find smooth parts of integers").
// Close primes fall to a bounded Fermat ascent.
package anomaly

import (
	"context"
	"fmt"
	"log/slog"
	"math/big"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/kernel"
	"github.com/factorable/weakkeys/internal/numtheory"
	"github.com/factorable/weakkeys/internal/prodtree"
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
	// ProbeNone: the probes found nothing. Not a proof of strength — only
	// that no prime below 2²⁰ divides the modulus and the Fermat budget
	// cannot reach its primes.
	ProbeNone ProbeClass = ""
	// ProbeFermatWeak: the primes are close enough that Fermat's method
	// split the modulus within the ascent budget.
	ProbeFermatWeak ProbeClass = "fermat_weak"
	// ProbeSmallFactor: a prime below 2²⁰ divides the modulus.
	ProbeSmallFactor ProbeClass = "small_factor"
)

// DefaultFermatSteps is the ascent budget: large enough to catch every
// naturally occurring close-prime pair (they land in a handful of
// steps), small enough for the serving path at the widths it sees.
const DefaultFermatSteps = 512

// smoothPrimes is π(2²⁰): the probe finds every prime factor below
// B = 2²⁰, the primes whose product is P_B.
const smoothPrimes = 82025

// primorial is P_B, built on first use: too large to build at init for
// a process that never probes.
var primorial = sync.OnceValue(buildPrimorial)

// buildPrimorial returns P_B, the product of the first smoothPrimes
// primes (about 1.51 Mbit).
func buildPrimorial() *big.Int {
	primes := numtheory.SmallPrimes(smoothPrimes)
	leaves := make([]*big.Int, len(primes))
	for i, p := range primes {
		leaves[i] = new(big.Int).SetUint64(p)
	}
	// P_B outlives the probe that first asks for it, so no caller's
	// context governs the build.
	t, err := prodtree.NewCtx(context.Background(), leaves)
	if err != nil {
		panic(err) // only a cancelled context or no leaves fail
	}
	return t.Root()
}

// reducers holds the Reducers that fold P_B mod a probed modulus; a
// Reducer's fold scratch grows to half of P_B, so it outlives the probe.
var reducers = sync.Pool{New: func() any { return new(prodtree.Reducer) }}

// Probe is the per-modulus factoring probe: one GCD with P_B for prime
// factors below 2²⁰, then a Fermat ascent over DefaultFermatSteps
// values of a from ceil(sqrt(N)) upward.
type Probe struct{}

// Factor runs the probes against n in cost order — the GCD with P_B,
// then the Fermat ascent — and returns the class of the first hit with a
// nontrivial split pHit <= qHit of n (either may be composite for a
// small-factor hit). ProbeNone with nil factors means neither split n.
func (Probe) Factor(n *big.Int) (cls ProbeClass, pHit, qHit *big.Int) {
	if n == nil || n.Sign() <= 0 || n.BitLen() < 2 || numtheory.ProbePrime(n) {
		return ProbeNone, nil, nil
	}
	// g = gcd(n, P_B mod n) is the product of the distinct primes below
	// 2²⁰ that divide n.
	r := reducers.Get().(*prodtree.Reducer)
	r.Reset(n)
	g := r.Mod(new(big.Int), primorial())
	r.Reset(nil)
	reducers.Put(r)
	if g.GCD(nil, nil, g, n).Cmp(n) == 0 {
		// n divides P_B: its least divisor above 1 is its smallest prime.
		var rem big.Int
		for g.SetInt64(2); rem.Mod(n, g).Sign() != 0; g.Add(g, bigOne) {
		}
	}
	if g.Cmp(bigOne) > 0 {
		// n is composite and g a proper divisor: SplitModulus cannot fail.
		sp, sq, _ := batchgcd.SplitModulus(n, g)
		return ProbeSmallFactor, sp, sq
	}
	// n is known composite from here on: the ascent skips the primality
	// test FermatFactor opens with.
	if sp, sq := numtheory.FermatComposite(n, DefaultFermatSteps); sp != nil {
		return ProbeFermatWeak, sp, sq
	}
	return ProbeNone, nil, nil
}

// IdentityCounts applies the identity rule to every modulus of a
// store's ByModulus view and returns the count for each one observed
// under two or more identities. A modulus's identities are the distinct
// subjects of the certificates carrying it or, when no certificate
// carries it, the distinct addresses that served it. Two or more is the
// shared-modulus signal: the paper's SSH-middlebox detector (one key,
// many hosts) and the Tor-relays shared-modulus graph both reduce to
// this count.
func IdentityCounts(view map[string]scanstore.Served) map[string]int {
	out := make(map[string]int)
	for mk, sv := range view {
		if n := len(identities(sv)); n >= 2 {
			out[mk] = n
		}
	}
	return out
}

// identities lists one modulus's identities under IdentityCounts' rule,
// sorted.
func identities(sv scanstore.Served) []string {
	if len(sv.Certs) == 0 {
		return sv.IPs
	}
	ids := make([]string, len(sv.Certs))
	for i, c := range sv.Certs {
		ids[i] = c.Subject.String()
	}
	sort.Strings(ids)
	return slices.Compact(ids)
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

	// Shared-modulus graph, from one view of the store.
	view := cfg.Store.ByModulus()
	counts := IdentityCounts(view)
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
				Hosts:      len(view[key].IPs),
			}
			ids := identities(view[key])
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

	// The factoring probe, fanned out on the kernel pool.
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
