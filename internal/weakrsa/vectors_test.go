package weakrsa

import (
	"fmt"
	"math/rand"
	"testing"
)

// keyText is a key as the vector tables pin it: P, Q, E and D.
func keyText(k *PrivateKey) string {
	return fmt.Sprintf("%x %x %d %x", k.P, k.Q, k.E, k.D)
}

// keyVectors pins every key constructor's first key from a seeded
// stream at 128 bits (GenerateKey also at 256), in each prime style a
// constructor is used with, and the stream's next value after it, so a
// change to what a constructor draws, or in which order, shows here.
var keyVectors = []struct {
	name string
	gen  func(r *rand.Rand) (*PrivateKey, error)
	want string
}{
	{"key/naive", func(r *rand.Rand) (*PrivateKey, error) {
		return GenerateKey(r, Options{Bits: 128})
	}, "d2ba8e7007298373 c203c438d4e94c07 65537 31985a2ec10f60e15b0cf1797f7e6a01 next=2877121541507365039"},
	{"key/openssl", func(r *rand.Rand) (*PrivateKey, error) {
		return GenerateKey(r, Options{Bits: 128, PrimeGen: PrimeOpenSSL})
	}, "f03b2442c5defe71 f6c62e8094847f45 65537 3e622f0a103c2b2ef6da431abc0d6c41 next=8863777800201020204"},
	{"key/safe", func(r *rand.Rand) (*PrivateKey, error) {
		return GenerateKey(r, Options{Bits: 128, PrimeGen: PrimeSafe})
	}, "f427d57aed33ddab e177a6a10fd0d37f 65537 aab953fbf1745f502f14b26d11a34f1 next=4836162705282450032"},
	{"key/openssl/256", func(r *rand.Rand) (*PrivateKey, error) {
		return GenerateKey(r, Options{Bits: 256, PrimeGen: PrimeOpenSSL})
	}, "e3292ffd93ed3e90a466a5e9cc8972d7 d7056f768626103367301edbefcd6c75 65537 a28024f6eeb656a77db42a805f5bb0223455392fb1b1fecb87a04b72671508b9 next=7787373430918668070"},
	{"key/mid-event", func(r *rand.Rand) (*PrivateKey, error) {
		return GenerateKey(r, Options{Bits: 128, MidEvent: func() { r.Int63() }})
	}, "c0abb44c895e95df df67cc02a811c1fd 65537 1cfe52884c7a9cf16f9effffb18867a9 next=6514763694557987289"},
	{"close/naive", func(r *rand.Rand) (*PrivateKey, error) {
		return GenerateClosePrimes(r, Options{Bits: 128})
	}, "d6f8c9dc46868eff d6f8c9dc468741a9 65537 4d57ae43a129bba2ff3b2bc17909d451 next=2371238207892071340"},
	{"close/openssl", func(r *rand.Rand) (*PrivateKey, error) {
		return GenerateClosePrimes(r, Options{Bits: 128, PrimeGen: PrimeOpenSSL})
	}, "f3b98f4708034aeb f3b98f470804264b 65537 b2439cee89ed7b4e6d49ce41a169e5d5 next=5958665497499553252"},
	{"small/default", func(r *rand.Rand) (*PrivateKey, error) {
		return GenerateSmallFactor(r, Options{Bits: 128}, 0)
	}, "337 35d902d9d138a86000de9b6819971f 65537 94b1764b927efa87152de05037978775 next=229939657356141896"},
	{"small/20", func(r *rand.Rand) (*PrivateKey, error) {
		return GenerateSmallFactor(r, Options{Bits: 128, PrimeGen: PrimeOpenSSL}, 20)
	}, "eb81d cd45e0de1baa7872d34f851f22d 65537 38c98d2a01652765a42bf513cc311cc1 next=6243283378023093190"},
	{"exponent/1", func(r *rand.Rand) (*PrivateKey, error) {
		return GenerateUnsafeExponent(r, Options{Bits: 128}, 1)
	}, "c47940d6c1650a21 d67aeec6c484f935 1 1 next=3131488746799644996"},
	{"exponent/2", func(r *rand.Rand) (*PrivateKey, error) {
		return GenerateUnsafeExponent(r, Options{Bits: 128, PrimeGen: PrimeOpenSSL}, 2)
	}, "d9b565e492b1cc41 cabbb120e61c2db5 2 0 next=4499320937847467969"},
	{"exponent/3", func(r *rand.Rand) (*PrivateKey, error) {
		return GenerateUnsafeExponent(r, Options{Bits: 128}, 3)
	}, "f7373b9214a4433f e5a0380863aa6699 3 93d4c09cb9d8611f45684ffce3a9c08b next=1569505203258075742"},
}

func TestKeyVectors(t *testing.T) {
	for i, v := range keyVectors {
		r := rand.New(rand.NewSource(int64(100 + i)))
		k, err := v.gen(r)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if got := fmt.Sprintf("%s next=%d", keyText(k), r.Int63()); got != v.want {
			t.Errorf("%s = %q, want %q", v.name, got, v.want)
		}
	}
}

// cliqueVector pins the primes of a nine-prime OpenSSL clique of
// 128-bit keys and three of its keys, the first, a middle and the last.
var cliqueVector = struct {
	primes []string
	keys   map[int]string
}{
	primes: []string{
		"d4f69ffbeb53bc5f",
		"f42a7f49f429bebb",
		"d3c06c773a4ab3b7",
		"f3542f807a021497",
		"c9900e3f4b5ace8b",
		"cd29b90b99e4743b",
		"e60a74918b45103f",
		"faa828a43cb354d1",
		"faabf956eda6c3a9",
	},
	keys: map[int]string{
		0:  "d4f69ffbeb53bc5f f42a7f49f429bebb 65537 acf015f8964291a8b972740105e41555",
		17: "d3c06c773a4ab3b7 cd29b90b99e4743b 65537 4703aa64f04968c42ea0dbd72ada2abd",
		35: "faa828a43cb354d1 faabf956eda6c3a9 65537 347da07a0b81c7ee83ddb06e20ad601",
	},
}

func TestCliqueVectors(t *testing.T) {
	c, err := NewClique([]byte("clique:vectors"), IBMCliquePrimes, 128, PrimeOpenSSL)
	if err != nil {
		t.Fatal(err)
	}
	var primes []string
	for _, p := range c.Primes() {
		primes = append(primes, fmt.Sprintf("%x", p))
	}
	if fmt.Sprint(primes) != fmt.Sprint(cliqueVector.primes) {
		t.Errorf("clique primes = %q, want %q", primes, cliqueVector.primes)
	}
	for _, index := range []int{0, 17, 35} {
		k, err := c.Key(index)
		if err != nil {
			t.Fatal(err)
		}
		if got := keyText(k); got != cliqueVector.keys[index] {
			t.Errorf("clique key %d = %q, want %q", index, got, cliqueVector.keys[index])
		}
	}
}
