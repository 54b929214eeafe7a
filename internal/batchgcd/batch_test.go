package batchgcd

import (
	"context"
	"errors"
	"math/big"
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
// arithmetic: own residues are (P/Ni) mod Ni, foreign residues q mod Ni,
// own residues with foreign products (P/Ni)·∏q mod Ni, Divisors the gcd
// with Ni (nil where 1) — and the combined residues yield the divisors
// one tree over both halves reports.
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
	own, err := b.OwnResidues(ctx)
	if err != nil {
		t.Fatal(err)
	}
	q1, q2 := product(theirs[0]), product(theirs[1])
	q1Want, q2Want := new(big.Int).Set(q1), new(big.Int).Set(q2)
	foreign, err := b.Residues(ctx, q1)
	if err != nil {
		t.Fatal(err)
	}
	all, err := b.OwnResidues(ctx, q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	if q1.Cmp(q1Want) != 0 || q2.Cmp(q2Want) != 0 {
		t.Error("Residues or OwnResidues modified a foreign product")
	}
	for i, n := range ours {
		cofactor := new(big.Int).Quo(b.Product(), n)
		if want := new(big.Int).Mod(cofactor, n); own[i].Cmp(want) != 0 {
			t.Errorf("own residue %d = %v, want (P/N) mod N = %v", i, own[i], want)
		}
		if want := new(big.Int).Mod(q1, n); foreign[i].Cmp(want) != 0 {
			t.Errorf("foreign residue %d = %v, want q mod N = %v", i, foreign[i], want)
		}
		want := cofactor.Mul(cofactor, q1).Mul(cofactor, q2).Mod(cofactor, n)
		if all[i].Cmp(want) != 0 {
			t.Errorf("residue %d with foreign products = %v, want (P/N)·q1·q2 mod N = %v", i, all[i], want)
		}
	}
	own = all
	divs, err := b.Divisors(ctx, own)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []*big.Int{ps[0], ps[0], ps[1], nil} {
		if (divs[i] == nil) != (want == nil) || (want != nil && divs[i].Cmp(want) != 0) {
			t.Errorf("divisor %d = %v, want %v", i, divs[i], want)
		}
	}
	// A zero residue means every prime of N is in the product.
	zero, err := b.Divisors(ctx, []*big.Int{new(big.Int), big.NewInt(1), big.NewInt(1), big.NewInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	if zero[0] == nil || zero[0].Cmp(ours[0]) != 0 || zero[1] != nil {
		t.Errorf("divisors of a zero residue = %v, want N itself then nil", zero[:2])
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
	own, err := b.OwnResidues(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 || own[0].Cmp(bigOne) != 0 {
		t.Fatalf("Len %d, own residue %v; want 1 and 1", b.Len(), own)
	}
	divs, err := b.Divisors(ctx, own)
	if err != nil {
		t.Fatal(err)
	}
	if divs[0] != nil || len(b.Results(divs)) != 0 {
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
	own, err := b.OwnResidues(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errNew := NewBatch(ctx, moduli)
	_, errOwn := b.OwnResidues(ctx)
	_, errRes := b.Residues(ctx, ps[0])
	_, errFor := b.OwnResidues(ctx, ps[0], ps[1])
	_, errDiv := b.Divisors(ctx, own)
	for op, err := range map[string]error{"NewBatch": errNew, "OwnResidues": errOwn, "Residues": errRes, "OwnResidues(foreign)": errFor, "Divisors": errDiv} {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s on a cancelled context: err = %v, want wrapped context.Canceled", op, err)
		}
	}
}
