package fingerprint

import (
	"math/big"
	"sort"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/numtheory"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

// Input bundles everything the fingerprint pipeline consumes: the distinct
// certificates and the batch-GCD output.
type Input struct {
	// Certs are the distinct certificates of the corpus.
	Certs []*certs.Certificate
	// Divisors maps modulus keys (big.Int bytes as string) to the
	// nontrivial divisor batch GCD reported. A divisor equal to the
	// modulus means both primes are shared (clique member).
	Divisors map[string]*big.Int
	// IPCount maps modulus keys to the number of distinct IPs ever
	// serving that modulus (for the MITM detector). Optional.
	IPCount map[string]int
	// CliqueVendors is analyst knowledge mapping known clique primes
	// (by decimal string) to a vendor — the paper identified the IBM
	// nine-prime pool from the 2012 disclosure and "labeled them all
	// IBM" even though the certificates name only customers. Optional;
	// unidentified cliques fall back to a majority vote over any
	// subject-labeled members.
	CliqueVendors map[string]string
	// ModulusBits is the expected well-formed modulus size for the
	// bit-error classifier. 0 disables the size check.
	ModulusBits int
}

// Factors is a recovered factorization p*q of a modulus (p <= q).
type Factors struct {
	P, Q *big.Int
}

// CliqueGroup is a detected low-entropy prime clique: more moduli than
// distinct primes (the IBM signature).
type CliqueGroup struct {
	// Primes is the clique's prime pool.
	Primes []*big.Int
	// ModKeys are the member moduli.
	ModKeys []string
}

// BitErrorFinding is a non-well-formed "modulus" with, when found, the
// valid modulus it is a bit flip away from.
type BitErrorFinding struct {
	ModKey string
	// TwinKey is the valid modulus within one bit flip, or "".
	TwinKey string
	// SmoothBits is the bit length of the small-prime part, the signal
	// the paper describes (random integers are divisible by many small
	// primes; true moduli by none).
	SmoothBits int
}

// MITMSuspect is a modulus served by suspiciously many unrelated
// certificates and IPs without being factorable: the Internet Rimon
// signature.
type MITMSuspect struct {
	ModKey        string
	DistinctCerts int
	DistinctIPs   int
}

// VendorStats aggregates the per-vendor fingerprint outcomes.
type VendorStats struct {
	Vendor string
	// CertsLabeled counts distinct certificates attributed.
	CertsLabeled int
	// VulnCerts counts labeled certificates whose modulus was factored.
	VulnCerts int
	// PrimesSatisfyingOpenSSL / PrimesTotal drive the Table 5 class.
	PrimesSatisfyingOpenSSL int
	PrimesTotal             int
	OpenSSL                 weakrsa.OpenSSLClass
}

// Result is the full fingerprint analysis.
type Result struct {
	// Labels maps certificate fingerprints to vendor attributions.
	Labels map[[32]byte]Label
	// Factors maps factored modulus keys to recovered prime splits.
	Factors map[string]Factors
	// Cliques are detected low-entropy cliques.
	Cliques []CliqueGroup
	// BitErrors are set-aside non-well-formed moduli.
	BitErrors []BitErrorFinding
	// MITM are suspected middlebox keys.
	MITM []MITMSuspect
	// Vendors aggregates per-vendor statistics, keyed by vendor name.
	Vendors map[string]*VendorStats
	// PrimeOverlaps records pairs of vendors whose factored keys share a
	// prime (Dell/Xerox, Siemens/IBM).
	PrimeOverlaps map[[2]string]int
}

// Analyze runs the full Section 3.3 pipeline.
func Analyze(in Input) *Result {
	rules := DefaultSubjectRules()
	res := &Result{
		Labels:        make(map[[32]byte]Label),
		Factors:       make(map[string]Factors),
		Vendors:       make(map[string]*VendorStats),
		PrimeOverlaps: make(map[[2]string]int),
	}

	// Index certificates by modulus.
	certsByMod := make(map[string][]*certs.Certificate)
	fpOf := make(map[*certs.Certificate][32]byte)
	for _, c := range in.Certs {
		fp, err := c.Fingerprint()
		if err != nil {
			continue
		}
		fpOf[c] = fp
		certsByMod[c.ModulusKey()] = append(certsByMod[c.ModulusKey()], c)
	}

	// Pass 0: set aside non-well-formed "moduli" across the whole
	// corpus, factored or not — the paper's 107 bit-error artifacts were
	// identified by not being products of two equal-sized primes, and
	// most were seen exactly once. Corrupted moduli usually pick up
	// small prime factors (a random integer is divisible by q with
	// probability 1/q), which is exactly what IsWellFormedModulus
	// sieves.
	bitError := make(map[string]bool)
	flagBitError := func(key string, n *big.Int) {
		if bitError[key] {
			return
		}
		bitError[key] = true
		finding := BitErrorFinding{
			ModKey:     key,
			SmoothBits: numtheory.SmoothBits(n, 256),
		}
		if twin := findBitErrorTwin(n, certsByMod); twin != "" {
			finding.TwinKey = twin
		}
		res.BitErrors = append(res.BitErrors, finding)
	}
	modKeys := make([]string, 0, len(certsByMod))
	for key := range certsByMod {
		modKeys = append(modKeys, key)
	}
	sort.Strings(modKeys)
	for _, key := range modKeys {
		n := new(big.Int).SetBytes([]byte(key))
		bits := in.ModulusBits
		if bits == 0 {
			bits = n.BitLen()
		}
		if !numtheory.IsWellFormedModulus(n, bits, 256) {
			flagBitError(key, n)
		}
	}
	factorable := make(map[string]*big.Int, len(in.Divisors))
	for key, div := range in.Divisors {
		if bitError[key] {
			continue
		}
		if _, seen := certsByMod[key]; !seen {
			// Bare-key moduli (no certificate) skip the well-formedness
			// scan above; check them here.
			n := new(big.Int).SetBytes([]byte(key))
			bits := in.ModulusBits
			if bits == 0 {
				bits = n.BitLen()
			}
			if !numtheory.IsWellFormedModulus(n, bits, 256) {
				flagBitError(key, n)
				continue
			}
		}
		factorable[key] = div
	}

	// Pass 1: recover factorizations. Degenerate divisors (divisor ==
	// modulus: both primes shared) are resolved by pairwise GCD within
	// the degenerate set — feasible because cliques are tiny.
	var degenerate []string
	for key, div := range factorable {
		n := new(big.Int).SetBytes([]byte(key))
		if div.Cmp(n) == 0 {
			degenerate = append(degenerate, key)
			continue
		}
		p := div
		q := new(big.Int).Quo(n, div)
		if p.Cmp(q) > 0 {
			p, q = q, p
		}
		res.Factors[key] = Factors{P: p, Q: q}
	}
	sort.Strings(degenerate)
	resolveDegenerate(degenerate, res.Factors)

	// Pass 1.5: validate recovered factorizations. A bit-flipped
	// modulus can slip past the small-prime sieve and still be
	// "factored" against another corrupted modulus via a shared
	// medium-sized factor — but the recovered pieces are composite and
	// unbalanced, never two equal-sized primes. The paper's test is
	// exactly "not the product of two equal-sized primes"; apply it.
	for key, f := range res.Factors {
		if validSplit(f, in.ModulusBits) {
			continue
		}
		delete(res.Factors, key)
		flagBitError(key, new(big.Int).SetBytes([]byte(key)))
	}

	// Pass 2: subject labeling.
	for _, c := range in.Certs {
		if lbl, ok := LabelBySubject(c, rules); ok {
			res.Labels[fpOf[c]] = lbl
		}
	}

	// Pass 3: clique detection over the share graph of factored moduli.
	res.Cliques = detectCliques(res.Factors)
	cliqueMod := make(map[string]bool)
	for _, cl := range res.Cliques {
		for _, k := range cl.ModKeys {
			cliqueMod[k] = true
		}
	}

	// Pass 3.5: clique attribution. Analyst-known primes win (the paper
	// labeled the 36-key family IBM from the 2012 disclosure); a
	// majority vote over any subject-labeled members is the fallback.
	// Subject labels that disagree with the clique vendor are the
	// Siemens-style overlaps — recorded, never overwritten.
	for _, cl := range res.Cliques {
		vendor := ""
		for _, p := range cl.Primes {
			if v, ok := in.CliqueVendors[p.String()]; ok {
				vendor = v
				break
			}
		}
		if vendor == "" {
			vendor = majorityVendor(cl, certsByMod, fpOf, res.Labels)
		}
		if vendor == "" {
			continue
		}
		for _, key := range cl.ModKeys {
			for _, c := range certsByMod[key] {
				if lbl, ok := res.Labels[fpOf[c]]; ok {
					if lbl.Vendor != vendor {
						res.PrimeOverlaps[orderedPair(lbl.Vendor, vendor)]++
					}
					continue
				}
				res.Labels[fpOf[c]] = Label{Vendor: vendor, Method: ByClique}
			}
		}
	}

	// Pass 4: vendor prime pools from subject-labeled factored certs,
	// then shared-prime extrapolation for unlabeled certs. Clique
	// moduli are excluded — their primes span vendors by construction.
	primeVendor := make(map[string]string) // prime -> vendor
	for _, c := range in.Certs {
		lbl, ok := res.Labels[fpOf[c]]
		if !ok || lbl.Method != BySubject {
			continue
		}
		key := c.ModulusKey()
		if cliqueMod[key] {
			continue
		}
		f, ok := res.Factors[key]
		if !ok {
			continue
		}
		for _, p := range []*big.Int{f.P, f.Q} {
			k := p.String()
			if prev, ok := primeVendor[k]; ok && prev != lbl.Vendor {
				res.PrimeOverlaps[orderedPair(prev, lbl.Vendor)]++
				continue
			}
			primeVendor[k] = lbl.Vendor
		}
	}
	for _, c := range in.Certs {
		if _, ok := res.Labels[fpOf[c]]; ok {
			continue
		}
		key := c.ModulusKey()
		if cliqueMod[key] {
			continue
		}
		f, ok := res.Factors[key]
		if !ok {
			continue
		}
		if v, ok := primeVendor[f.P.String()]; ok {
			res.Labels[fpOf[c]] = Label{Vendor: v, Method: BySharedPrime}
		} else if v, ok := primeVendor[f.Q.String()]; ok {
			res.Labels[fpOf[c]] = Label{Vendor: v, Method: BySharedPrime}
		}
	}

	// Pass 5: per-vendor aggregation and the OpenSSL fingerprint.
	for _, c := range in.Certs {
		lbl, ok := res.Labels[fpOf[c]]
		if !ok {
			continue
		}
		vs := res.Vendors[lbl.Vendor]
		if vs == nil {
			vs = &VendorStats{Vendor: lbl.Vendor}
			res.Vendors[lbl.Vendor] = vs
		}
		vs.CertsLabeled++
		if f, ok := res.Factors[c.ModulusKey()]; ok {
			vs.VulnCerts++
			for _, p := range []*big.Int{f.P, f.Q} {
				vs.PrimesTotal++
				if numtheory.SatisfiesOpenSSLProperty(p) {
					vs.PrimesSatisfyingOpenSSL++
				}
			}
		}
	}
	for _, vs := range res.Vendors {
		vs.OpenSSL = classifyOpenSSL(vs.PrimesSatisfyingOpenSSL, vs.PrimesTotal)
	}

	// Pass 6: MITM suspects — unfactored moduli served by many distinct
	// certificates (and IPs when known).
	for key, cs := range certsByMod {
		if _, factored := in.Divisors[key]; factored {
			continue
		}
		if len(cs) < 3 {
			continue
		}
		s := MITMSuspect{ModKey: key, DistinctCerts: len(cs)}
		if in.IPCount != nil {
			s.DistinctIPs = in.IPCount[key]
			if s.DistinctIPs < 3 {
				continue
			}
		}
		res.MITM = append(res.MITM, s)
	}
	sort.Slice(res.MITM, func(i, j int) bool { return res.MITM[i].DistinctCerts > res.MITM[j].DistinctCerts })
	return res
}

// validSplit reports whether a recovered factorization looks like a real
// RSA key: both pieces probable primes of roughly half the modulus size.
func validSplit(f Factors, modulusBits int) bool {
	if !f.P.ProbablyPrime(12) || !f.Q.ProbablyPrime(12) {
		return false
	}
	if modulusBits > 0 {
		half := modulusBits / 2
		for _, p := range []*big.Int{f.P, f.Q} {
			if diff := p.BitLen() - half; diff < -2 || diff > 2 {
				return false
			}
		}
	}
	return true
}

// classifyOpenSSL implements the Table 5 decision: all primes satisfying
// the property means likely OpenSSL; a substantial violating fraction
// means definitely not. (A random non-OpenSSL prime satisfies it with
// probability ~7.5%, so even a small sample separates cleanly.)
func classifyOpenSSL(sat, total int) weakrsa.OpenSSLClass {
	if total == 0 {
		return weakrsa.OpenSSLUnknown
	}
	if sat == total {
		return weakrsa.OpenSSLLikely
	}
	if float64(sat) < 0.5*float64(total) {
		return weakrsa.OpenSSLNot
	}
	// Mixed: a mostly-satisfying sample with some violations still rules
	// out OpenSSL (OpenSSL can never emit a violating prime).
	return weakrsa.OpenSSLNot
}

// detectCliques groups factored moduli into connected components by
// shared primes and reports components with more moduli than distinct
// primes — impossible for the star-shaped shared-first-prime failure,
// and the defining shape of the IBM clique.
func detectCliques(factors map[string]Factors) []CliqueGroup {
	parent := make(map[string]string) // union-find over prime strings
	var find func(string) string
	find = func(x string) string {
		if parent[x] == "" || parent[x] == x {
			parent[x] = x
			return x
		}
		r := find(parent[x])
		parent[x] = r
		return r
	}
	union := func(a, b string) { parent[find(a)] = find(b) }

	keys := make([]string, 0, len(factors))
	for k := range factors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f := factors[k]
		union(f.P.String(), f.Q.String())
	}
	type comp struct {
		primes map[string]*big.Int
		mods   []string
	}
	comps := make(map[string]*comp)
	for _, k := range keys {
		f := factors[k]
		root := find(f.P.String())
		c := comps[root]
		if c == nil {
			c = &comp{primes: make(map[string]*big.Int)}
			comps[root] = c
		}
		c.primes[f.P.String()] = f.P
		c.primes[f.Q.String()] = f.Q
		c.mods = append(c.mods, k)
	}
	var out []CliqueGroup
	for _, c := range comps {
		if len(c.mods) <= len(c.primes) {
			continue // star/chain shapes: the ordinary shared-prime failure
		}
		g := CliqueGroup{ModKeys: c.mods}
		pk := make([]string, 0, len(c.primes))
		for s := range c.primes {
			pk = append(pk, s)
		}
		sort.Strings(pk)
		for _, s := range pk {
			g.Primes = append(g.Primes, c.primes[s])
		}
		sort.Strings(g.ModKeys)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return len(out[i].ModKeys) > len(out[j].ModKeys) })
	return out
}

// resolveDegenerate splits moduli whose batch divisor equalled the
// modulus by pairwise GCD against other degenerate moduli and against
// already-recovered primes.
func resolveDegenerate(keys []string, factors map[string]Factors) {
	ns := make([]*big.Int, len(keys))
	for i, k := range keys {
		ns[i] = new(big.Int).SetBytes([]byte(k))
	}
	one := big.NewInt(1)
	for i := range ns {
		if _, done := factors[keys[i]]; done {
			continue
		}
		for j := range ns {
			if i == j {
				continue
			}
			g := new(big.Int).GCD(nil, nil, ns[i], ns[j])
			if g.Cmp(one) == 0 || g.Cmp(ns[i]) == 0 {
				continue
			}
			q := new(big.Int).Quo(ns[i], g)
			p := g
			if p.Cmp(q) > 0 {
				p, q = q, p
			}
			factors[keys[i]] = Factors{P: p, Q: q}
			break
		}
	}
}

// majorityVendor returns the most common vendor label among a clique's
// member certificates, or "" when none are labeled.
func majorityVendor(cl CliqueGroup, certsByMod map[string][]*certs.Certificate, fpOf map[*certs.Certificate][32]byte, labels map[[32]byte]Label) string {
	counts := make(map[string]int)
	for _, key := range cl.ModKeys {
		for _, c := range certsByMod[key] {
			if lbl, ok := labels[fpOf[c]]; ok {
				counts[lbl.Vendor]++
			}
		}
	}
	best, bestN := "", 0
	for v, n := range counts {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

// findBitErrorTwin looks for a known modulus within one bit flip of n.
func findBitErrorTwin(n *big.Int, certsByMod map[string][]*certs.Certificate) string {
	for bit := 0; bit <= n.BitLen(); bit++ {
		t := new(big.Int).SetBit(n, bit, n.Bit(bit)^1)
		key := string(t.Bytes())
		if _, ok := certsByMod[key]; ok {
			return key
		}
	}
	return ""
}

func orderedPair(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}
