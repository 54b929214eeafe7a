package numtheory

import (
	"math/big"
	"testing"
	"time"
)

func TestSmallFactors(t *testing.T) {
	// 360 = 2^3 * 3^2 * 5
	factors, cofactor := SmallFactors(big.NewInt(360), 100)
	want := []PrimePower{{2, 3}, {3, 2}, {5, 1}}
	if len(factors) != len(want) {
		t.Fatalf("factors: %v", factors)
	}
	for i, w := range want {
		if factors[i] != w {
			t.Errorf("factor %d = %v, want %v", i, factors[i], w)
		}
	}
	if cofactor.Int64() != 1 {
		t.Errorf("cofactor = %v", cofactor)
	}
	// 2 * 7919 with only the first 100 primes sieved: 7919 survives.
	factors, cofactor = SmallFactors(big.NewInt(2*7919), 100)
	if len(factors) != 1 || factors[0] != (PrimePower{2, 1}) || cofactor.Int64() != 7919 {
		t.Errorf("got %v, %v", factors, cofactor)
	}
}

// TestSmallFactorsOfZeroReturns pins zero, which every prime divides: it
// has no factorization, and trial division must say so rather than
// divide it forever.
func TestSmallFactorsOfZeroReturns(t *testing.T) {
	type result struct {
		factors  []PrimePower
		cofactor *big.Int
	}
	done := make(chan result, 1)
	go func() {
		factors, cofactor := SmallFactors(new(big.Int), 128)
		done <- result{factors, cofactor}
	}()
	select {
	case r := <-done:
		if r.factors != nil || r.cofactor.Sign() != 0 {
			t.Errorf("SmallFactors(0, 128) = %v, %v, want nil, 0", r.factors, r.cofactor)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SmallFactors(0, 128) did not return")
	}
}

// fermatSteps computes the exact budget FermatFactor needs for n = p*q:
// the ascent runs from ceil(sqrt(n)) to (p+q)/2 inclusive.
func fermatSteps(p, q *big.Int) int {
	n := new(big.Int).Mul(p, q)
	a0 := new(big.Int).Sqrt(n)
	if new(big.Int).Mul(a0, a0).Cmp(n) < 0 {
		a0.Add(a0, big.NewInt(1))
	}
	mid := new(big.Int).Add(p, q)
	mid.Rsh(mid, 1)
	return int(new(big.Int).Sub(mid, a0).Int64()) + 1
}

func TestFermatFactorClosePrimes(t *testing.T) {
	p, err := GenPrimeNaive(testRand(41), 64)
	if err != nil {
		t.Fatal(err)
	}
	q := NextPrime(new(big.Int).Add(p, big.NewInt(2)))
	n := new(big.Int).Mul(p, q)
	fp, fq := FermatFactor(n, 64)
	if fp == nil {
		t.Fatalf("Fermat failed on adjacent primes %v * %v", p, q)
	}
	if fp.Cmp(p) != 0 || fq.Cmp(q) != 0 {
		t.Errorf("Fermat split %v, %v, want %v, %v", fp, fq, p, q)
	}
}

// TestFermatFactorBudgetBoundary pins the budget semantics: a prime pair
// whose ascent needs exactly k steps splits with maxSteps = k and must
// not split with k-1.
func TestFermatFactorBudgetBoundary(t *testing.T) {
	p, err := GenPrimeNaive(testRand(42), 64)
	if err != nil {
		t.Fatal(err)
	}
	// A mate far enough above p that the ascent takes a multi-step budget
	// (~(q-p)²/(8·sqrt(n)) ≈ 2^74/2^67 ≈ 100 steps) but is still
	// comfortably Fermat-weak.
	q := NextPrime(new(big.Int).Add(p, new(big.Int).Lsh(big.NewInt(1), 37)))
	n := new(big.Int).Mul(p, q)
	need := fermatSteps(p, q)
	if need < 2 {
		t.Fatalf("degenerate case: pair needs only %d step(s)", need)
	}
	fp, fq := FermatFactor(n, need)
	if fp == nil || fp.Cmp(p) != 0 || fq.Cmp(q) != 0 {
		t.Fatalf("budget %d: got %v, %v, want %v, %v", need, fp, fq, p, q)
	}
	if fp, _ := FermatFactor(n, need-1); fp != nil {
		t.Errorf("budget %d (one short) still split: %v", need-1, fp)
	}
}

func TestFermatFactorRefusesNonCandidates(t *testing.T) {
	prime, err := GenPrimeNaive(testRand(43), 64)
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*big.Int{
		"prime":    prime,
		"one":      big.NewInt(1),
		"zero":     big.NewInt(0),
		"negative": big.NewInt(-21),
		"even":     big.NewInt(1 << 20),
	} {
		if p, q := FermatFactor(n, 1000); p != nil || q != nil {
			t.Errorf("%s: FermatFactor(%v) = %v, %v, want nil", name, n, p, q)
		}
	}
	// A prime square is the step-0 fixed point.
	sq := new(big.Int).Mul(prime, prime)
	p, q := FermatFactor(sq, 1)
	if p == nil || p.Cmp(prime) != 0 || q.Cmp(prime) != 0 {
		t.Errorf("square: got %v, %v, want %v twice", p, q, prime)
	}
}
