package numtheory

import (
	"bytes"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"testing"
)

// testRand returns a deterministic entropy source for reproducible tests.
func testRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// TestProbePrimeMatchesProbablyPrime holds the base-2 gate to the test
// it fronts: on every n below 2^16 (0, 1, 2 and the even n included),
// on the base-2 Fermat pseudoprimes below 10^4, which pass the gate and
// leave the decision to ProbablyPrime, and on primes and semiprimes of
// 128 and 1024 bits; and the gate's own verdict to 2^(n-1) mod n on odd
// n of 2 to 141 bits, either side of the two-limb kernel's reach.
func TestProbePrimeMatchesProbablyPrime(t *testing.T) {
	t.Parallel()
	check := func(n *big.Int) {
		t.Helper()
		if got, want := ProbePrime(n), n.ProbablyPrime(12); got != want {
			t.Errorf("ProbePrime(%v) = %v, ProbablyPrime(12) = %v", n, got, want)
		}
	}
	for v := int64(0); v < 1<<16; v++ {
		check(big.NewInt(v))
	}
	pseudoprimes := []int64{341, 561, 645, 1105, 1387, 1729, 1905, 2047, 2465, 2701, 2821,
		3277, 4033, 4369, 4371, 4681, 5461, 6601, 7957, 8321, 8481, 8911}
	for _, v := range pseudoprimes {
		n := big.NewInt(v)
		if f := new(big.Int).Exp(two, big.NewInt(v-1), n); f.Cmp(one) != 0 || n.ProbablyPrime(12) {
			t.Errorf("%d is not a base-2 Fermat pseudoprime", v)
		}
		check(n)
	}
	rng := testRand(2106)
	for _, bits := range []int{128, 1024} {
		p, q := randPrime(t, rng, bits), randPrime(t, rng, bits/2)
		check(p)
		check(new(big.Int).Mul(p, q))
		check(new(big.Int).Mul(q, randPrime(t, rng, bits/2)))
	}
	// The gate alone, on both of its paths, against big.Int.Exp: a gate
	// that let composites through would still answer right, only slowly.
	for i := 0; i < 3000; i++ {
		n := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(2+i%140)))
		if n.SetBit(n, 0, 1); n.Cmp(one) == 0 {
			continue
		}
		if i%10 == 0 {
			n = randPrime(t, rng, 16+i%120)
		}
		nm1 := new(big.Int).Sub(n, one)
		if got, want := fermatBase2(n), nm1.Exp(two, nm1, n).Cmp(one) == 0; got != want {
			t.Errorf("fermatBase2(%v) = %v, 2^(n-1) mod n = 1 is %v", n, got, want)
		}
	}
}

func TestNextPrime(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{0, 2}, {2, 2}, {3, 3}, {4, 5}, {14, 17}, {90, 97}, {7907, 7907},
	}
	for _, c := range cases {
		if got := NextPrime(big.NewInt(c.in)); got.Int64() != c.want {
			t.Errorf("NextPrime(%d) = %v, want %d", c.in, got, c.want)
		}
	}
}

// nextPrimeVectors pins NextPrime at the widths it is called with
// (weakrsa plants close-prime and small-factor keys through it): two
// seeded inputs per width from 64 to 512 bits, the first made even,
// and 2^(bits-1). Generated by the bare ProbablyPrime(20) scan before
// the word sieve; the second 128-bit input is itself prime, and three
// searches cross a sieve window.
var nextPrimeVectors = []struct{ in, want string }{
	{"dd94025827933232", "dd9402582793326f"},
	{"b92172ac71ea2aa0", "b92172ac71ea2b53"},
	{"b5ac84e679321ad5a5cce990", "b5ac84e679321ad5a5cce9c9"},
	{"8e43d287731eb81d67ce387d", "8e43d287731eb81d67ce3893"},
	{"80451f8b302499710397f5bb6dac9996", "80451f8b302499710397f5bb6dac99c7"},
	{"8b399dea59f49b58ea6bcb98de08e3e3", "8b399dea59f49b58ea6bcb98de08e3e3"},
	{"eb78697441c1f2549021f13d6c258f5af1a6553a", "eb78697441c1f2549021f13d6c258f5af1a655a9"},
	{"9f68e4f335698d3b78215feb0021d6506b0f35bd", "9f68e4f335698d3b78215feb0021d6506b0f35cf"},
	{"a928cc5b90e850d19a0b76ee56993890f10203e387454b6c", "a928cc5b90e850d19a0b76ee56993890f10203e387454bd9"},
	{"a40887257c101dbcca4fb5eab6a9f66ab87fd4c8ea3520d9", "a40887257c101dbcca4fb5eab6a9f66ab87fd4c8ea352127"},
	{"e442f8f7dccd6241fc25d17a652f44823fc4e1ae6a26bde640b63f1f6b10f676", "e442f8f7dccd6241fc25d17a652f44823fc4e1ae6a26bde640b63f1f6b10f6bd"},
	{"84e7cd853c225f57ef59312238c74fdd3cb55555276a9221ec92233d72af1d39", "84e7cd853c225f57ef59312238c74fdd3cb55555276a9221ec92233d72af1d43"},
	{"e2d7ddc3cab93c0711ed9b42e2ca1ea6308401adb361af08d1d415889deed2bcdccfa09372d89744", "e2d7ddc3cab93c0711ed9b42e2ca1ea6308401adb361af08d1d415889deed2bcdccfa09372d8980b"},
	{"ccd4785ee6ba5cbc8a8d0bcd7bcbaf425a9cc59e2981110100a829bdc7884309e13f01372375a7e2", "ccd4785ee6ba5cbc8a8d0bcd7bcbaf425a9cc59e2981110100a829bdc7884309e13f01372375a7f3"},
	{"cefe1d335d44daadfb01ea47d3e9bc09845d6c48df21480744d3ff2994f455ed7591113ca5f952ba178a14c4333c166c", "cefe1d335d44daadfb01ea47d3e9bc09845d6c48df21480744d3ff2994f455ed7591113ca5f952ba178a14c4333c16d1"},
	{"8a6379d0e5b01a5212e3997c9e53196d1a395557c6828861cf1842a1810bc2399ad5a1d89511e25bf3613c1f235df8ab", "8a6379d0e5b01a5212e3997c9e53196d1a395557c6828861cf1842a1810bc2399ad5a1d89511e25bf3613c1f235df9af"},
	{"a404230aa79d09c040c93415b81f1ea6568c7ad204a27cc873aaf7b29175a0dedbf4c61370f650616fa09b068d627123123285466f7d7ee4", "a404230aa79d09c040c93415b81f1ea6568c7ad204a27cc873aaf7b29175a0dedbf4c61370f650616fa09b068d627123123285466f7d7fe7"},
	{"ae9a21b29223097f21db48794ed11fb734e2c9e84891515bfeb9e75eca81de9cb76b3eb603d0f08018c64b78f1a1bcc0736cf79f5b494180", "ae9a21b29223097f21db48794ed11fb734e2c9e84891515bfeb9e75eca81de9cb76b3eb603d0f08018c64b78f1a1bcc0736cf79f5b4942e7"},
	{"9b6eb0066a0e930c270c67b412a10299981a6d121e3608e35af780bf367f3fdddec521914690f14ca0fdc76cd50ceb5b2b73d7b320ae61a3af7c3e4097d45fca", "9b6eb0066a0e930c270c67b412a10299981a6d121e3608e35af780bf367f3fdddec521914690f14ca0fdc76cd50ceb5b2b73d7b320ae61a3af7c3e4097d45fff"},
	{"fd6475619417741b97342d02a019f919ddfa833961f2fdb005ad5194d50d1c18400bea95932a65d635a435346313868faa4afe05c2cd7848d096ae90e7655f2b", "fd6475619417741b97342d02a019f919ddfa833961f2fdb005ad5194d50d1c18400bea95932a65d635a435346313868faa4afe05c2cd7848d096ae90e7655fa1"},
	{"8000000000000000", "800000000000001d"},
	{"80000000000000000000000000000000", "8000000000000000000000000000001d"},
	{"8000000000000000000000000000000000000000000000000000000000000000", "800000000000000000000000000000000000000000000000000000000000005f"},
	{"80000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000", "8000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000006f"},
}

func TestNextPrimeVectors(t *testing.T) {
	for _, v := range nextPrimeVectors {
		n, _ := new(big.Int).SetString(v.in, 16)
		if got := NextPrime(n).Text(16); got != v.want {
			t.Errorf("NextPrime(%s) = %s, want %s", v.in, got, v.want)
		}
	}
}

// TestNextPrimeMatchesOracle holds the sieved search to the bare scan:
// every input up to 5,000, across the width below which NextPrime does
// not sieve, and random inputs of 12 to 600 bits, whose searches cross
// sieve windows.
func TestNextPrimeMatchesOracle(t *testing.T) {
	for i := int64(-2); i <= 5000; i++ {
		n := big.NewInt(i)
		if got, want := NextPrime(n), oracleNextPrime(n); got.Cmp(want) != 0 {
			t.Fatalf("NextPrime(%d) = %v, want %v", i, got, want)
		}
	}
	rng := rand.New(rand.NewSource(65))
	for i := 0; i < 24; i++ {
		bits := 12 + rng.Intn(589)
		n := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(bits)))
		if got, want := NextPrime(n), oracleNextPrime(n); got.Cmp(want) != 0 {
			t.Fatalf("NextPrime(%s) = %s, want %s", n.Text(16), got.Text(16), want.Text(16))
		}
	}
}

func TestNextPrimeDoesNotMutate(t *testing.T) {
	n := big.NewInt(10)
	NextPrime(n)
	if n.Int64() != 10 {
		t.Error("NextPrime mutated its argument")
	}
}

func TestRandomOdd(t *testing.T) {
	r := testRand(42)
	for _, bits := range []int{16, 64, 128, 512, 513} {
		v, err := RandomOdd(r, bits)
		if err != nil {
			t.Fatalf("RandomOdd(%d): %v", bits, err)
		}
		if v.BitLen() != bits {
			t.Errorf("RandomOdd(%d) has bit length %d", bits, v.BitLen())
		}
		if v.Bit(0) != 1 {
			t.Errorf("RandomOdd(%d) is even", bits)
		}
		if v.Bit(bits-2) != 1 {
			t.Errorf("RandomOdd(%d) second-highest bit not set", bits)
		}
	}
}

func TestRandomOddRejectsTinyBits(t *testing.T) {
	if _, err := RandomOdd(testRand(1), 8); err == nil {
		t.Error("expected error for 8-bit request")
	}
}

func TestRandomOddEntropyFailure(t *testing.T) {
	if _, err := RandomOdd(bytes.NewReader(nil), 64); err != ErrEntropy {
		t.Errorf("got %v, want ErrEntropy", err)
	}
}

// generators are the three prime generators by the name the vectors
// and the oracle test give them.
var generators = map[string]func(io.Reader, int) (*big.Int, error){
	"naive":   GenPrimeNaive,
	"openssl": GenPrimeOpenSSL,
	"safe":    GenSafePrime,
}

// genPrimeVectors pins each generator's first two primes from
// testRand(bits) at 16 to 512 bits (safe primes from 17, the least
// GenSafePrime takes), so the entropy each draw reads is pinned too.
// Generated by the per-candidate scan oracleGenPrime keeps.
var genPrimeVectors = []struct {
	gen  string
	bits int
	want [2]string
}{
	{"naive", 16, [2]string{"e48f", "c037"}},
	{"openssl", 16, [2]string{"e537", "c047"}},
	{"naive", 17, [2]string{"1c385", "1a9f9"}},
	{"openssl", 17, [2]string{"1c3b5", "1aa4d"}},
	{"safe", 17, [2]string{"1f787", "1d567"}},
	{"naive", 64, [2]string{"dc6157823798aa6b", "db70a964ce916073"}},
	{"openssl", 64, [2]string{"dc6157823798ad21", "db70a964ce916407"}},
	{"safe", 64, [2]string{"f414c0727616a02f", "eaecfdbdf327354b"}},
	{"naive", 128, [2]string{"fcbeb8ddcb4cd63a3162ffddfacbdd07", "dddcb84c12fa40a3c6c58f221ea533c7"}},
	{"openssl", 128, [2]string{"fcbeb8ddcb4cd63a3162ffddfacbdf4d", "dddcb84c12fa40a3c6c58f221ea53745"}},
	{"safe", 128, [2]string{"ea7ec0426a827419fcdc507d1dd6a03f", "fd048a0168e74440d6d1d69e8f0848bf"}},
	{"naive", 256, [2]string{"fcfd07a28ba921bebe7a529b9ca7bfde003f2d87b47f03bcd421b58b56241b4d", "f1e7b0635261460263500f16646963c0d8d9b15269fef9f285b3379b0344d8c5"}},
	{"openssl", 256, [2]string{"fcfd07a28ba921bebe7a529b9ca7bfde003f2d87b47f03bcd421b58b562421e3", "f1e7b0635261460263500f16646963c0d8d9b15269fef9f285b3379b0344deed"}},
	{"safe", 256, [2]string{"d6ed98498b61c3d41abed2c09725bd754abf20fa83b18424678baccc5bb36d3f", "dd24e8620d9960b48af08edc052c892dd4e4a01776550102545b10e99fc07a0b"}},
	{"naive", 512, [2]string{"fa8688dee52fea76235d08201fbe368650fcd13057767496f0d9ebb944772db1ad7586d5851338b6e37e6b62c637a6784819c82afec890622fb276ccee9f4175", "da03f75fc07b2acfb0d571041b8e5acc1b89360da31095ab4c815070b5bd4bda3386e2b433488649070364ad310358b7aa80d1c995afb23a0b113648574bd125"}},
	{"openssl", 512, [2]string{"fa8688dee52fea76235d08201fbe368650fcd13057767496f0d9ebb944772db1ad7586d5851338b6e37e6b62c637a6784819c82afec890622fb276ccee9f567f", "da03f75fc07b2acfb0d571041b8e5acc1b89360da31095ab4c815070b5bd4bda3386e2b433488649070364ad310358b7aa80d1c995afb23a0b113648574bd459"}},
	{"safe", 512, [2]string{"ffcf1e79b5afe9bea687b2fdb14e54c7213fc6ee6f6b8258753c9d94730475292b35a836b6a0ac212d1070c116980957f1594a594d4095993b5df408187f9247", "f96f41b254e34a4b0e11eb3df4bcb21eab63c580f40ee7a0545c2aa9e9e2100d7edaf0cfbd12fcb0e93492c0ff87ad955996c37fc90b78b7dddaec111188b637"}},
}

func TestGenPrimeVectors(t *testing.T) {
	for _, v := range genPrimeVectors {
		rng := testRand(int64(v.bits))
		for i, want := range v.want {
			p, err := generators[v.gen](rng, v.bits)
			if err != nil {
				t.Fatalf("%s %d-bit prime %d: %v", v.gen, v.bits, i, err)
			}
			if got := p.Text(16); got != want {
				t.Errorf("%s %d-bit prime %d = %s, want %s", v.gen, v.bits, i, got, want)
			}
		}
	}
}

// TestGenPrimeMatchesOracle holds both generator flavours to the
// per-candidate scan they replaced, over 300 seeds at each width from
// 16 to 256 bits: the same prime, and the entropy source left at the
// same place for the next draw. 512 bits would add about 10 s, for a
// width genPrimeVectors pins.
func TestGenPrimeMatchesOracle(t *testing.T) {
	flavours := []struct {
		name        string
		gen         func(io.Reader, int) (*big.Int, error)
		sievePrimes int
		excludeOne  bool
	}{
		{"naive", GenPrimeNaive, trialDivisionPrimes, false},
		{"openssl", GenPrimeOpenSSL, OpenSSLSievePrimes, true},
	}
	for _, bits := range []int{16, 17, 24, 33, 64, 100, 128, 256} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			t.Parallel()
			for _, f := range flavours {
				for seed := int64(0); seed < 300; seed++ {
					r, ro := testRand(seed), testRand(seed)
					got, err := f.gen(r, bits)
					if err != nil {
						t.Fatal(err)
					}
					want, err := oracleGenPrime(ro, bits, f.sievePrimes, f.excludeOne)
					if err != nil {
						t.Fatal(err)
					}
					if got.Cmp(want) != 0 || r.Int63() != ro.Int63() {
						t.Fatalf("%s seed %d: got %s, oracle %s (or a different entropy read)", f.name, seed, got.Text(16), want.Text(16))
					}
				}
			}
		})
	}
}

func TestGenPrimeNaive(t *testing.T) {
	r := testRand(7)
	for i := 0; i < 4; i++ {
		p, err := GenPrimeNaive(r, 128)
		if err != nil {
			t.Fatal(err)
		}
		if p.BitLen() != 128 {
			t.Errorf("prime bit length %d, want 128", p.BitLen())
		}
		if !p.ProbablyPrime(30) {
			t.Errorf("GenPrimeNaive produced composite %v", p)
		}
	}
}

func TestGenPrimeNaiveDeterministicGivenEntropy(t *testing.T) {
	p1, err := GenPrimeNaive(testRand(99), 128)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := GenPrimeNaive(testRand(99), 128)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Cmp(p2) != 0 {
		t.Error("same entropy stream produced different primes — the shared-prime vulnerability model depends on this determinism")
	}
}

func TestGenPrimeOpenSSLSatisfiesProperty(t *testing.T) {
	r := testRand(3)
	for i := 0; i < 3; i++ {
		p, err := GenPrimeOpenSSL(r, 128)
		if err != nil {
			t.Fatal(err)
		}
		if !p.ProbablyPrime(30) {
			t.Fatalf("composite from GenPrimeOpenSSL: %v", p)
		}
		if !SatisfiesOpenSSLProperty(p) {
			t.Errorf("OpenSSL-style prime %v fails the OpenSSL property", p)
		}
	}
}

func TestNaivePrimesMostlyFailOpenSSLProperty(t *testing.T) {
	// Mironov's estimate: ~7.5% of unconstrained primes satisfy the
	// property. With 40 samples the chance all satisfy it is ~0; we just
	// assert a strict majority fails.
	r := testRand(11)
	fail := 0
	const n = 40
	for i := 0; i < n; i++ {
		p, err := GenPrimeNaive(r, 128)
		if err != nil {
			t.Fatal(err)
		}
		if !SatisfiesOpenSSLProperty(p) {
			fail++
		}
	}
	if fail < n*3/4 {
		t.Errorf("only %d/%d naive primes fail the OpenSSL property; expected a large majority", fail, n)
	}
}

func TestSatisfiesOpenSSLPropertyKnownValues(t *testing.T) {
	// p = 23: p-1 = 22 = 2*11, 11 is a small odd prime -> fails.
	if SatisfiesOpenSSLProperty(big.NewInt(23)) {
		t.Error("23 should fail the property (22 = 2*11)")
	}
	// A safe prime far beyond the sieve range: p-1 = 2q with q prime and
	// huge, so no small odd factor. Construct via GenSafePrime.
	p, err := GenSafePrime(testRand(5), 64)
	if err != nil {
		t.Fatal(err)
	}
	if !SatisfiesOpenSSLProperty(p) {
		t.Errorf("safe prime %v should satisfy the property", p)
	}
}

func TestGenSafePrime(t *testing.T) {
	p, err := GenSafePrime(testRand(8), 48)
	if err != nil {
		t.Fatal(err)
	}
	if p.BitLen() != 48 {
		t.Errorf("bit length %d, want 48", p.BitLen())
	}
	if !IsSafePrime(p) {
		t.Errorf("%v is not a safe prime", p)
	}
}

func TestIsSafePrime(t *testing.T) {
	// 23 is safe (11 prime); 13 is not (6 composite).
	if !IsSafePrime(big.NewInt(23)) {
		t.Error("23 is a safe prime")
	}
	if IsSafePrime(big.NewInt(13)) {
		t.Error("13 is not a safe prime")
	}
	if IsSafePrime(big.NewInt(24)) {
		t.Error("24 is not prime at all")
	}
}

func TestGenPrimeEntropyFailurePropagates(t *testing.T) {
	if _, err := GenPrimeNaive(bytes.NewReader(nil), 64); err == nil {
		t.Error("expected entropy error")
	}
	if _, err := GenPrimeOpenSSL(bytes.NewReader(nil), 64); err == nil {
		t.Error("expected entropy error")
	}
}
