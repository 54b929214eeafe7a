package numtheory

import (
	"math/big"
	"testing"
	"testing/quick"
	"time"
)

func TestSmoothPart(t *testing.T) {
	cases := []struct {
		n, smooth, cofactor int64
	}{
		{360, 360, 1},   // 2^3*3^2*5 fully smooth
		{7919, 1, 7919}, // prime beyond first 100? 7919 is the 1000th prime
		{2 * 2 * 7919, 4, 7919},
		{1, 1, 1},
	}
	for _, c := range cases {
		s, cf := SmoothPart(big.NewInt(c.n), 100)
		if s.Int64() != c.smooth || cf.Int64() != c.cofactor {
			t.Errorf("SmoothPart(%d) = (%v,%v), want (%d,%d)", c.n, s, cf, c.smooth, c.cofactor)
		}
	}
}

// TestSmoothPartOfZero: every prime divides zero, so dividing them out
// must stop at once rather than run forever; zero's answer is (1, 0).
func TestSmoothPartOfZero(t *testing.T) {
	done := make(chan [2]*big.Int, 1)
	go func() {
		s, cf := SmoothPart(new(big.Int), 100)
		done <- [2]*big.Int{s, cf}
	}()
	select {
	case got := <-done:
		if got[0].Cmp(big.NewInt(1)) != 0 || got[1].Sign() != 0 {
			t.Errorf("SmoothPart(0) = (%v,%v), want (1,0)", got[0], got[1])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SmoothPart(0) did not return within 2s")
	}
}

func TestSmoothPartInvariant(t *testing.T) {
	// smooth * cofactor == n, and cofactor has no factor among the sieve.
	f := func(v uint32) bool {
		n := big.NewInt(int64(v) + 2)
		s, cf := SmoothPart(n, 50)
		prod := new(big.Int).Mul(s, cf)
		if prod.Cmp(n) != 0 {
			return false
		}
		var m, q big.Int
		for _, p := range FirstPrimes(50) {
			if cf.Cmp(big.NewInt(1)) != 0 && m.Mod(cf, q.SetUint64(p)).Sign() == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSmoothBits(t *testing.T) {
	if got := SmoothBits(big.NewInt(1024), 10); got != 11 {
		t.Errorf("SmoothBits(1024) = %d, want 11", got)
	}
	if got := SmoothBits(big.NewInt(7919), 100); got != 1 {
		t.Errorf("SmoothBits(7919) = %d, want 1", got)
	}
}

func TestIsWellFormedModulus(t *testing.T) {
	r := testRand(21)
	p, _ := GenPrimeNaive(r, 64)
	q, _ := GenPrimeNaive(r, 64)
	n := new(big.Int).Mul(p, q)
	if !IsWellFormedModulus(n, 128, 256) {
		t.Errorf("genuine modulus rejected: %v", n)
	}
	// Flip one low bit: with overwhelming probability the result picks up
	// small factors or goes even.
	flipped := new(big.Int).Xor(n, big.NewInt(1)) // now even
	if IsWellFormedModulus(flipped, 128, 256) {
		t.Error("even number accepted as modulus")
	}
	if IsWellFormedModulus(p, 64, 256) {
		t.Error("prime accepted as modulus")
	}
	if IsWellFormedModulus(n, 120, 256) {
		t.Error("wrong-bit-length modulus accepted")
	}
	if IsWellFormedModulus(big.NewInt(-15), 4, 10) {
		t.Error("negative accepted")
	}
	// Divisible by 3.
	m3 := new(big.Int).Lsh(big.NewInt(3), 125)
	m3.Add(m3, big.NewInt(3))
	if IsWellFormedModulus(m3, m3.BitLen(), 256) {
		t.Error("multiple of 3 accepted")
	}
}
