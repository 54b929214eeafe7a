package certs

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/weakrsa"
)

// fuzzSeedCert builds a deterministic valid certificate for seeding.
func fuzzSeedCert(f *testing.F) []byte {
	f.Helper()
	k, err := weakrsa.GenerateKey(rand.New(rand.NewSource(99)), weakrsa.Options{Bits: 96})
	if err != nil {
		f.Fatal(err)
	}
	c, err := SelfSigned(big.NewInt(99), Name{CommonName: "fuzz-seed", Organization: "Fuzz"},
		time.Unix(0, 0), time.Unix(1<<40, 0), []string{"fritz.box"}, k.N, k.E, k.D)
	if err != nil {
		f.Fatal(err)
	}
	raw, err := c.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzParse hardens the DER parser against arbitrary scan payloads: a
// certificate fetcher on the open internet sees truncated, corrupted and
// adversarial bytes (the paper's pipeline parsed 131M certificates from
// five different collection methodologies). Parse must never panic, and
// anything it accepts with its mandatory fields present must re-marshal
// and re-parse to the same modulus.
func FuzzParse(f *testing.F) {
	raw := fuzzSeedCert(f)
	f.Add(raw)
	f.Add([]byte{})
	f.Add([]byte{0x30, 0x03, 0x02, 0x01, 0x01})
	f.Add(raw[:len(raw)/2])
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := Parse(data)
		if err != nil {
			return
		}
		re, err := parsed.Marshal()
		if err != nil {
			if parsed.N == nil || parsed.SerialNumber == nil {
				return // degenerate but detectable; Marshal refuses
			}
			t.Fatalf("accepted certificate fails to re-marshal: %v", err)
		}
		again, err := Parse(re)
		if err != nil {
			t.Fatalf("re-marshaled certificate fails to parse: %v", err)
		}
		if again.N.Cmp(parsed.N) != 0 {
			t.Fatal("modulus changed across re-marshal round trip")
		}
	})
}

// FuzzParseModulusPEMs covers the PEM ingestion path of cmd/batchgcd.
func FuzzParseModulusPEMs(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodeModulusPEM(&buf, big.NewInt(0xABCDEF)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("-----BEGIN WEAKKEYS RSA MODULUS-----\nnot base64!!\n-----END WEAKKEYS RSA MODULUS-----\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		mods, err := ParseModulusPEMs(data)
		if err != nil {
			return
		}
		for _, m := range mods {
			if m == nil || m.Sign() <= 0 {
				t.Fatalf("modulus %v returned without error", m)
			}
		}
	})
}
