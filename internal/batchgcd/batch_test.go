package batchgcd

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"
)

// product multiplies vals the slow way, as the reference.
func product(vals []*big.Int) *big.Int {
	p := big.NewInt(1)
	for _, v := range vals {
		p.Mul(p, v)
	}
	return p
}

// TestBatchAgainstNaiveMod pins each Batch operation to plain big.Int
// arithmetic: own divisors are gcd(N, (P/N) mod N), own divisors with
// foreign products gcd(N, (P/N)·∏q mod N), foreign divisors gcd(q, N)
// per foreign product q, all nil where 1 — and the combined divisors are
// what one tree over both halves reports, N itself where a product holds
// both of its primes.
func TestBatchAgainstNaiveMod(t *testing.T) {
	ctx := context.Background()
	ps := corpus(t, 21, 12, 48)
	// ours shares ps[0] inside the batch and ps[1] with the foreign half.
	ours := []*big.Int{mul(ps[0], ps[2]), mul(ps[0], ps[3]), mul(ps[1], ps[4]), mul(ps[5], ps[6])}
	theirs := [][]*big.Int{{mul(ps[1], ps[7]), mul(ps[8], ps[9])}, {mul(ps[10], ps[11])}}
	b, err := NewBatch(ctx, ours)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != len(ours) || b.Product().Cmp(product(ours)) != 0 || b.Bytes() <= 0 {
		t.Fatalf("Len %d, Product %v, Bytes %d", b.Len(), b.Product(), b.Bytes())
	}
	own, err := b.OwnDivisors(ctx)
	if err != nil {
		t.Fatal(err)
	}
	q1, q2 := product(theirs[0]), product(theirs[1])
	q1Want, q2Want := new(big.Int).Set(q1), new(big.Int).Set(q2)
	foreign, err := b.ForeignDivisors(ctx, []*big.Int{q1, q2})
	if err != nil {
		t.Fatal(err)
	}
	all, err := b.OwnDivisors(ctx, q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	if q1.Cmp(q1Want) != 0 || q2.Cmp(q2Want) != 0 {
		t.Error("ForeignDivisors or OwnDivisors modified a foreign product")
	}
	// wantGCD checks got against gcd(n, v mod n), nil for 1.
	wantGCD := func(what string, i int, got, n, v *big.Int) {
		t.Helper()
		want := new(big.Int).Mod(v, n)
		want.GCD(nil, nil, want, n)
		if want.Cmp(bigOne) == 0 && got != nil || want.Cmp(bigOne) != 0 && (got == nil || got.Cmp(want) != 0) {
			t.Errorf("%s of modulus %d = %v, want %v (nil for 1)", what, i, got, want)
		}
	}
	for i, n := range ours {
		cofactor := new(big.Int).Quo(b.Product(), n)
		wantGCD("own divisor", i, own[i], n, cofactor)
		for s, q := range []*big.Int{q1, q2} {
			wantGCD(fmt.Sprintf("foreign divisor by product %d", s), i, foreign[s][i], n, q)
		}
		wantGCD("divisor with foreign products", i, all[i], n, cofactor.Mul(cofactor, q1).Mul(cofactor, q2))
	}
	for i, want := range []*big.Int{ps[0], ps[0], ps[1], nil} {
		if (all[i] == nil) != (want == nil) || (want != nil && all[i].Cmp(want) != 0) {
			t.Errorf("divisor %d = %v, want %v", i, all[i], want)
		}
	}
	// A product holding both primes of N makes N its own divisor.
	whole, err := b.OwnDivisors(ctx, mul(ps[5], ps[6]))
	if err != nil {
		t.Fatal(err)
	}
	if whole[3] == nil || whole[3].Cmp(ours[3]) != 0 || whole[2] != nil {
		t.Errorf("divisors with a product of both primes = %v, want N itself at 3 and nil at 2", whole)
	}
}

// TestForeignDivisorsAgainstGCD holds ForeignDivisors to gcd(q, Ni) per
// product and modulus, with few moduli sharing (split through a tree of
// their own) and with all (split through the batch's tree), including
// moduli whose primes sit in two products and moduli one product holds
// whole.
func TestForeignDivisorsAgainstGCD(t *testing.T) {
	ctx := context.Background()
	ps := corpus(t, 24, 96, 48)
	for _, shared := range []int{2, 48} {
		// ours[i] takes its first prime from the foreign pool ps[:32] for
		// i < shared, else from ps[48:], and its second from ps[48:].
		var ours []*big.Int
		for i := 0; i < 48; i++ {
			p := ps[48+i%48]
			if i < shared {
				p = ps[i%32]
			}
			ours = append(ours, mul(p, ps[48+(i+17)%48]))
		}
		ours = append(ours, mul(ps[0], ps[16])) // primes in two products
		ours = append(ours, mul(ps[1], ps[2]))  // one product holds it whole
		b, err := NewBatch(ctx, ours)
		if err != nil {
			t.Fatal(err)
		}
		qs := []*big.Int{product(ps[:16]), product(ps[16:32]), product(ps[80:81])}
		divs, err := b.ForeignDivisors(ctx, qs)
		if err != nil {
			t.Fatal(err)
		}
		for s, q := range qs {
			for i, n := range ours {
				want := new(big.Int).GCD(nil, nil, q, n)
				if got := divs[s][i]; want.Cmp(bigOne) == 0 && got != nil || want.Cmp(bigOne) != 0 && (got == nil || got.Cmp(want) != 0) {
					t.Errorf("shared=%d: divisor of modulus %d by product %d = %v, want %v (nil for 1)", shared, i, s, got, want)
				}
			}
		}
	}
}

func TestBatchSingleModulusAndDuplicates(t *testing.T) {
	ctx := context.Background()
	ps := corpus(t, 22, 3, 48)
	n := mul(ps[0], ps[1])
	// One distinct modulus, held by two input indices: it has nothing to
	// share a prime with, itself included.
	b, err := NewBatch(ctx, []*big.Int{n, new(big.Int).Set(n)})
	if err != nil {
		t.Fatal(err)
	}
	divs, err := b.OwnDivisors(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 || divs[0] != nil || len(b.Results(divs)) != 0 {
		t.Errorf("lone modulus reported vulnerable: %v", divs)
	}
	// Results fans a divisor out to every index that held the modulus.
	res := b.Results([]*big.Int{ps[0]})
	if len(res) != 2 || res[0].Index != 0 || res[1].Index != 1 || res[1].Divisor.Cmp(ps[0]) != 0 {
		t.Errorf("Results = %v, want indices 0 and 1", res)
	}
	if _, err := NewBatch(ctx, nil); err != ErrNoInput {
		t.Errorf("empty batch err = %v, want ErrNoInput", err)
	}
}

// TestBatchRejectsNonPositive: a zero or negative modulus is an error
// naming the first such index, where it used to panic in the Reducer;
// even moduli stay legal.
func TestBatchRejectsNonPositive(t *testing.T) {
	for _, c := range []struct {
		moduli []int64
		want   string
	}{
		{[]int64{0, 15, 21}, "modulus 0 is not positive"},
		{[]int64{15, -35, 21, 0}, "modulus 1 is not positive"},
	} {
		moduli := make([]*big.Int, len(c.moduli))
		for i, v := range c.moduli {
			moduli[i] = big.NewInt(v)
		}
		if _, err := Factor(moduli); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Factor(%v) err = %v, want %q", c.moduli, err, c.want)
		}
	}
	res, err := Factor([]*big.Int{big.NewInt(10), big.NewInt(15), big.NewInt(21)})
	if err != nil || len(res) != 3 {
		t.Errorf("Factor(10, 15, 21) = %v, %v; want all three factored", res, err)
	}
}

func TestBatchCancelled(t *testing.T) {
	ps := corpus(t, 23, 8, 48)
	var moduli []*big.Int
	for i := 0; i+1 < len(ps); i += 2 {
		moduli = append(moduli, mul(ps[i], ps[i+1]))
	}
	b, err := NewBatch(context.Background(), moduli)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errNew := NewBatch(ctx, moduli)
	_, errOwn := b.OwnDivisors(ctx)
	_, errRes := b.ForeignDivisors(ctx, []*big.Int{ps[0], ps[1]})
	_, errFor := b.OwnDivisors(ctx, ps[0], ps[1])
	for op, err := range map[string]error{"NewBatch": errNew, "OwnDivisors": errOwn, "ForeignDivisors": errRes, "OwnDivisors(foreign)": errFor} {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s on a cancelled context: err = %v, want wrapped context.Canceled", op, err)
		}
	}
}
