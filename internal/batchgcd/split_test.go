package batchgcd

import (
	"math/big"
	"reflect"
	"testing"
)

func ints(vs ...int64) []*big.Int {
	out := make([]*big.Int, len(vs))
	for i, v := range vs {
		out[i] = big.NewInt(v)
	}
	return out
}

// TestSplits walks each route from divisor to split: a proper divisor, a
// clique (every divisor N), a star (N's primes recovered from two other
// keys), N split only by others or only by known, and the nil results.
func TestSplits(t *testing.T) {
	for _, tc := range []struct {
		name                            string
		moduli, divisors, others, known []*big.Int
		want                            [][2]int64 // {0, 0}: nil
	}{
		{name: "proper", moduli: ints(15, 77), divisors: ints(5, 7),
			want: [][2]int64{{3, 5}, {7, 11}}},
		{name: "4-prime clique", moduli: ints(3*5, 3*7, 3*11, 5*7, 5*11, 7*11), divisors: ints(3*5, 3*7, 3*11, 5*7, 5*11, 7*11),
			want: [][2]int64{{3, 5}, {3, 7}, {3, 11}, {5, 7}, {5, 11}, {7, 11}}},
		{name: "star", moduli: ints(13*17, 13*19, 17*23), divisors: ints(13*17, 13, 17),
			want: [][2]int64{{13, 17}, {13, 19}, {17, 23}}},
		{name: "others only", moduli: ints(13 * 17), divisors: ints(13 * 17), others: ints(17*29, 31*37),
			want: [][2]int64{{13, 17}}},
		{name: "known only", moduli: ints(13 * 17), divisors: ints(13 * 17), known: ints(29, 13),
			want: [][2]int64{{13, 17}}},
		{name: "nothing splits", moduli: ints(13*17, 19*23), divisors: ints(13*17, 19*23), others: ints(29 * 31), known: ints(37),
			want: [][2]int64{{0, 0}, {0, 0}}},
		{name: "trivial or not dividing", moduli: ints(15, 15, 15), divisors: ints(1, 4, 0),
			want: [][2]int64{{0, 0}, {0, 0}, {0, 0}}},
	} {
		got := Splits(tc.moduli, tc.divisors, tc.others, tc.known)
		if again := Splits(tc.moduli, tc.divisors, tc.others, tc.known); !reflect.DeepEqual(got, again) {
			t.Errorf("%s: two calls differ: %v, %v", tc.name, got, again)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d splits for %d moduli", tc.name, len(got), len(tc.want))
		}
		for i, s := range got {
			if s == nil {
				if tc.want[i] != [2]int64{} {
					t.Errorf("%s: modulus %v left whole, want %v", tc.name, tc.moduli[i], tc.want[i])
				}
				continue
			}
			if s.P.Cmp(s.Q) > 0 {
				t.Errorf("%s: modulus %v split %v > %v", tc.name, tc.moduli[i], s.P, s.Q)
			}
			if [2]int64{s.P.Int64(), s.Q.Int64()} != tc.want[i] {
				t.Errorf("%s: modulus %v = %v·%v, want %v", tc.name, tc.moduli[i], s.P, s.Q, tc.want[i])
			}
		}
	}
}
