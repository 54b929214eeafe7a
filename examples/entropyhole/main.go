// Entropyhole walks through the root cause from Section 2.4 of the paper
// at the smallest possible scale: two identical devices boot with no
// entropy, generate RSA keys with a low-entropy time-stir between the two
// primes, and an attacker with only their PUBLIC keys factors both with
// one gcd and decrypts a TLS-style session.
//
//	go run ./examples/entropyhole
package main

import (
	"fmt"
	"log"
	"math/big"
	"time"

	"github.com/factorable/weakkeys/internal/entropy"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("entropyhole: ")

	// Two devices of the same model run the same firmware image and
	// boot with no hardware entropy: their RNG states are identical.
	firmware := []byte("router-model-X firmware 1.0.3")
	devA, devB := entropy.NewPool(firmware), entropy.NewPool(firmware)

	// Each device generates its TLS key on first boot. Between the two
	// prime draws the firmware stirs in the current boot-relative time —
	// a few hundred milliseconds apart across the two devices.
	t0 := time.Date(2012, 2, 1, 9, 0, 0, 0, time.UTC)
	keyA, err := weakrsa.GenerateKey(devA, weakrsa.Options{
		Bits: 512, PrimeGen: weakrsa.PrimeOpenSSL,
		MidEvent: func() { devA.MixTime(t0.Add(412*time.Millisecond), time.Millisecond) },
	})
	if err != nil {
		log.Fatal(err)
	}
	keyB, err := weakrsa.GenerateKey(devB, weakrsa.Options{
		Bits: 512, PrimeGen: weakrsa.PrimeOpenSSL,
		MidEvent: func() { devB.MixTime(t0.Add(731*time.Millisecond), time.Millisecond) },
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("device A modulus: %x...\n", keyA.N.Bytes()[:12])
	fmt.Printf("device B modulus: %x...\n", keyB.N.Bytes()[:12])
	if keyA.N.Cmp(keyB.N) == 0 {
		log.Fatal("moduli identical — expected divergence after the mid-generation stir")
	}

	// The attacker sees only the two public moduli. One gcd breaks both.
	start := time.Now()
	p := new(big.Int).GCD(nil, nil, keyA.N, keyB.N)
	elapsed := time.Since(start)
	if p.BitLen() <= 1 {
		log.Fatal("no shared factor — these devices were not vulnerable")
	}
	fmt.Printf("\ngcd(Na, Nb) recovered a shared %d-bit prime in %v\n", p.BitLen(), elapsed)

	// Recover device A's private key from the public key + shared prime.
	qA := new(big.Int).Quo(keyA.N, p)
	phi := new(big.Int).Mul(new(big.Int).Sub(p, big.NewInt(1)), new(big.Int).Sub(qA, big.NewInt(1)))
	d := new(big.Int).ModInverse(big.NewInt(int64(keyA.E)), phi)
	if d == nil {
		log.Fatal("could not invert e")
	}

	// Decrypt a session-key-sized secret encrypted to device A.
	secret := big.NewInt(0x5e55104Cafe)
	ct := new(big.Int).Exp(secret, big.NewInt(int64(keyA.E)), keyA.N)
	pt := new(big.Int).Exp(ct, d, keyA.N)
	fmt.Printf("decrypted RSA ciphertext with the recovered key: %#x (want %#x)\n", pt, secret)
	if pt.Cmp(secret) != 0 {
		log.Fatal("decryption failed")
	}
	fmt.Println("\nboth devices' private keys are compromised by their public keys alone.")
}
