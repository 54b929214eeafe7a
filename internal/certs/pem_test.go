package certs

import (
	"bytes"
	"encoding/pem"
	"io"
	"math/big"
	"strings"
	"testing"
)

// encodePEM writes c as a certificate PEM block, the form ParsePEM reads.
func encodePEM(t *testing.T, w io.Writer, c *Certificate) {
	t.Helper()
	der, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := pem.Encode(w, &pem.Block{Type: PEMCertificateType, Bytes: der}); err != nil {
		t.Fatal(err)
	}
}

func TestCertPEMRoundTrip(t *testing.T) {
	c, _ := testCert(t, 40)
	var buf bytes.Buffer
	encodePEM(t, &buf, c)
	if !bytes.Contains(buf.Bytes(), []byte("BEGIN WEAKKEYS CERTIFICATE")) {
		t.Error("PEM header missing")
	}
	got, err := ParsePEM(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.N.Cmp(c.N) != 0 || got.Subject != c.Subject {
		t.Error("PEM round trip mismatch")
	}
}

func TestParsePEMSkipsForeignBlocks(t *testing.T) {
	c, _ := testCert(t, 41)
	var buf bytes.Buffer
	EncodeModulusPEM(&buf, big.NewInt(12345))
	encodePEM(t, &buf, c)
	got, err := ParsePEM(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.N.Cmp(c.N) != 0 {
		t.Error("wrong block parsed")
	}
}

func TestParsePEMNoBlock(t *testing.T) {
	if _, err := ParsePEM([]byte("not pem at all")); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	EncodeModulusPEM(&buf, big.NewInt(7))
	if _, err := ParsePEM(buf.Bytes()); err == nil {
		t.Error("modulus-only input should not yield a certificate")
	}
}

func TestModulusPEMRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := []*big.Int{big.NewInt(0xABCDEF), big.NewInt(0x123456789)}
	for _, n := range want {
		if err := EncodeModulusPEM(&buf, n); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ParseModulusPEMs(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d moduli", len(got))
	}
	for i := range want {
		if got[i].Cmp(want[i]) != 0 {
			t.Errorf("modulus %d mismatch", i)
		}
	}
	if out, err := ParseModulusPEMs(nil); err != nil || len(out) != 0 {
		t.Error("empty input should parse to nothing")
	}
}

// TestModulusPEMRejectsZero: a block of one zero byte, or of none, is no
// modulus and fails with its index, as a hex line of zero does.
func TestModulusPEMRejectsZero(t *testing.T) {
	for _, body := range []string{"AA==", ""} {
		var buf bytes.Buffer
		if err := EncodeModulusPEM(&buf, big.NewInt(15)); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("-----BEGIN WEAKKEYS RSA MODULUS-----\n" + body + "\n-----END WEAKKEYS RSA MODULUS-----\n")
		if mods, err := ParseModulusPEMs(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "block 1 is not positive") {
			t.Errorf("block %q: %v, %v; want block 1 rejected", body, mods, err)
		}
	}
}
