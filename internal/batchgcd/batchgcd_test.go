package batchgcd

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/numtheory"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// corpus builds a deterministic test corpus: nPrimes distinct primes of
// the given bit size, from which moduli can be assembled.
func corpus(t testing.TB, seed int64, nPrimes, bits int) []*big.Int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	primes := make([]*big.Int, 0, nPrimes)
	for len(primes) < nPrimes {
		p, err := numtheory.GenPrimeNaive(rng, bits)
		if err != nil {
			t.Fatal(err)
		}
		k := p.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		primes = append(primes, p)
	}
	return primes
}

func mul(a, b *big.Int) *big.Int { return new(big.Int).Mul(a, b) }

func TestFactorNoInput(t *testing.T) {
	if _, err := Factor(nil); err != ErrNoInput {
		t.Errorf("got %v, want ErrNoInput", err)
	}
	if _, err := FactorPairwise(nil); err != ErrNoInput {
		t.Errorf("got %v, want ErrNoInput", err)
	}
}

func TestFactorSharedPrime(t *testing.T) {
	ps := corpus(t, 1, 5, 64)
	// N0 = p0*p1, N1 = p0*p2 share p0; N2 = p3*p4 is safe.
	moduli := []*big.Int{mul(ps[0], ps[1]), mul(ps[0], ps[2]), mul(ps[3], ps[4])}
	res, err := Factor(moduli)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2: %v", len(res), res)
	}
	for _, r := range res {
		if r.Index == 2 {
			t.Error("safe modulus reported vulnerable")
		}
		if r.Divisor.Cmp(ps[0]) != 0 {
			t.Errorf("divisor %v, want shared prime %v", r.Divisor, ps[0])
		}
		p, q, err := SplitModulus(moduli[r.Index], r.Divisor)
		if err != nil {
			t.Fatal(err)
		}
		if mul(p, q).Cmp(moduli[r.Index]) != 0 {
			t.Error("split does not multiply back")
		}
	}
}

func TestFactorNoSharedPrimes(t *testing.T) {
	ps := corpus(t, 2, 8, 64)
	moduli := []*big.Int{mul(ps[0], ps[1]), mul(ps[2], ps[3]), mul(ps[4], ps[5]), mul(ps[6], ps[7])}
	res, err := Factor(moduli)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("expected no vulnerable moduli, got %v", res)
	}
}

func TestFactorDuplicatesNotVulnerable(t *testing.T) {
	// The same certificate seen twice must not mark the key vulnerable:
	// the paper deduplicates to 81M distinct moduli before the GCD run.
	ps := corpus(t, 3, 2, 64)
	n := mul(ps[0], ps[1])
	res, err := Factor([]*big.Int{n, new(big.Int).Set(n), n})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("duplicate modulus falsely vulnerable: %v", res)
	}
}

func TestFactorDuplicateOfVulnerableReportsAllCopies(t *testing.T) {
	ps := corpus(t, 4, 3, 64)
	n1 := mul(ps[0], ps[1])
	n2 := mul(ps[0], ps[2])
	res, err := Factor([]*big.Int{n1, n2, new(big.Int).Set(n1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("want all 3 records vulnerable, got %v", res)
	}
}

func TestFactorSingleModulus(t *testing.T) {
	ps := corpus(t, 5, 2, 64)
	res, err := Factor([]*big.Int{mul(ps[0], ps[1])})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("single modulus cannot share a factor: %v", res)
	}
}

func TestFactorCliqueBothPrimesShared(t *testing.T) {
	// IBM-style clique: every modulus is a product of two primes from a
	// tiny pool, so a modulus can share BOTH primes with neighbours. The
	// batch divisor then equals the modulus; the pairwise fallback must
	// still recover a proper split.
	ps := corpus(t, 6, 3, 64)
	moduli := []*big.Int{
		mul(ps[0], ps[1]), mul(ps[0], ps[2]), mul(ps[1], ps[2]),
	}
	res, err := Factor(moduli)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("all three clique moduli must be vulnerable, got %v", res)
	}
	for _, r := range res {
		if r.Divisor.Cmp(moduli[r.Index]) != 0 {
			t.Errorf("clique divisor should be the whole modulus, got %v", r.Divisor)
		}
	}
	pres, err := FactorPairwise(moduli)
	if err != nil {
		t.Fatal(err)
	}
	if len(pres) != 3 {
		t.Fatalf("pairwise should also flag all three")
	}
	for _, r := range pres {
		p, q, err := SplitModulus(moduli[r.Index], r.Divisor)
		if err != nil {
			t.Fatalf("pairwise divisor should split: %v", err)
		}
		if !p.ProbablyPrime(20) || !q.ProbablyPrime(20) {
			t.Error("split factors are not prime")
		}
	}
}

// vulnerableSet is the membership view of a Factor run.
func vulnerableSet(t *testing.T, moduli []*big.Int) map[int]bool {
	t.Helper()
	res, err := Factor(moduli)
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[int]bool, len(res))
	for _, r := range res {
		set[r.Index] = true
	}
	return set
}

func TestFactorAgreesWithPairwise(t *testing.T) {
	ps := corpus(t, 7, 12, 48)
	rng := rand.New(rand.NewSource(77))
	var moduli []*big.Int
	for i := 0; i < 30; i++ {
		a, b := rng.Intn(len(ps)), rng.Intn(len(ps))
		if a == b {
			b = (b + 1) % len(ps)
		}
		moduli = append(moduli, mul(ps[a], ps[b]))
	}
	batchSet := vulnerableSet(t, moduli)
	pres, err := FactorPairwise(moduli)
	if err != nil {
		t.Fatal(err)
	}
	pairSet := make(map[int]bool)
	for _, r := range pres {
		pairSet[r.Index] = true
	}
	// Pairwise finds shared factors between distinct moduli; batch agrees
	// on exactly the same membership (both skip duplicate-equal pairs).
	for i := range moduli {
		if batchSet[i] != pairSet[i] {
			t.Errorf("index %d: batch=%v pairwise=%v", i, batchSet[i], pairSet[i])
		}
	}
}

func TestSplitModulusErrors(t *testing.T) {
	n := big.NewInt(15)
	if _, _, err := SplitModulus(n, big.NewInt(1)); err == nil {
		t.Error("divisor 1 should be rejected")
	}
	if _, _, err := SplitModulus(n, big.NewInt(15)); err == nil {
		t.Error("divisor == n should be rejected")
	}
	if _, _, err := SplitModulus(n, big.NewInt(4)); err == nil {
		t.Error("non-divisor should be rejected")
	}
	p, q, err := SplitModulus(n, big.NewInt(5))
	if err != nil || p.Int64() != 3 || q.Int64() != 5 {
		t.Errorf("SplitModulus(15,5) = %v,%v,%v", p, q, err)
	}
}

func TestFactorLargerCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("larger corpus in -short mode")
	}
	ps := corpus(t, 8, 40, 64)
	var moduli []*big.Int
	wantVuln := make(map[int]bool)
	// 100 safe moduli from disjoint prime pairs would need 200 primes;
	// instead build 15 safe pairs and 10 sharing ps[0].
	for i := 0; i < 30; i += 2 {
		moduli = append(moduli, mul(ps[i], ps[i+1]))
	}
	for i := 30; i < 40; i++ {
		wantVuln[len(moduli)] = true
		moduli = append(moduli, mul(ps[0], ps[i]))
	}
	// ps[0] also appears in moduli[0] = ps[0]*ps[1]: that one becomes
	// vulnerable too.
	wantVuln[0] = true
	set := vulnerableSet(t, moduli)
	for i := range moduli {
		if set[i] != wantVuln[i] {
			t.Errorf("index %d: got %v want %v", i, set[i], wantVuln[i])
		}
	}
}

func TestFactorCtxCancelled(t *testing.T) {
	ps := corpus(t, 9, 10, 64)
	moduli := make([]*big.Int, 0, 5)
	for i := 0; i+1 < len(ps); i += 2 {
		moduli = append(moduli, new(big.Int).Mul(ps[i], ps[i+1]))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FactorCtx(ctx, moduli); !errors.Is(err, context.Canceled) {
		t.Fatalf("FactorCtx err = %v, want wrapped context.Canceled", err)
	}
	// Uncancelled FactorCtx matches Factor.
	got, err := FactorCtx(context.Background(), moduli)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Factor(moduli)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("FactorCtx results = %d, Factor = %d", len(got), len(want))
	}
}

// TestFactorCtxCancelledInReciprocal cancels FactorCtx halfway through
// the root's Newton reciprocal, timed from a traced run of the same
// corpus, and wants a wrapped context.Canceled within a second.
func TestFactorCtxCancelledInReciprocal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mods := make([]*big.Int, 12000) // the cost is in the widths: random odd 128-bit values
	for i := range mods {
		mods[i] = new(big.Int).SetBits([]big.Word{big.Word(rng.Uint64() | 1), big.Word(rng.Uint64() | 1<<63)})
	}
	tracer := telemetry.NewTracer()
	if _, err := FactorCtx(telemetry.ContextWithSpan(context.Background(), tracer.Start("factor")), mods); err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	for _, ev := range tracer.Events() {
		if ev.Name == "prodtree.reciprocal" {
			at = time.Duration((ev.TS + ev.Dur/2) * float64(time.Microsecond))
		}
	}
	if at == 0 {
		t.Fatal("no prodtree.reciprocal span: the corpus does not reach the scaled descent")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := make(chan time.Time, 1)
	time.AfterFunc(at, func() { fired <- time.Now(); cancel() })
	res, err := FactorCtx(ctx, mods)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancel after %v: %d results, err = %v; want none and a wrapped context.Canceled", at, len(res), err)
	}
	if lag := returned.Sub(<-fired); lag > time.Second {
		t.Errorf("FactorCtx returned %v after the cancel", lag)
	}
}
