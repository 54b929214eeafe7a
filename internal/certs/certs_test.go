package certs

import (
	"encoding/asn1"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/weakrsa"
)

func testKey(t *testing.T, seed int64) *weakrsa.PrivateKey {
	t.Helper()
	k, err := weakrsa.GenerateKey(rand.New(rand.NewSource(seed)), weakrsa.Options{Bits: 128})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func testCert(t *testing.T, seed int64) (*Certificate, *weakrsa.PrivateKey) {
	t.Helper()
	k := testKey(t, seed)
	c, err := SelfSigned(
		big.NewInt(1000+seed),
		Name{CommonName: "system generated", Organization: "TestVendor"},
		time.Date(2012, 3, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC),
		[]string{"device.local"},
		k.N, k.E, k.D,
	)
	if err != nil {
		t.Fatal(err)
	}
	return c, k
}

func TestMarshalParseRoundTrip(t *testing.T) {
	c, _ := testCert(t, 1)
	raw, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.SerialNumber.Cmp(c.SerialNumber) != 0 {
		t.Error("serial mismatch")
	}
	if got.Subject != c.Subject || got.Issuer != c.Issuer {
		t.Error("name mismatch")
	}
	if !got.NotBefore.Equal(c.NotBefore) || !got.NotAfter.Equal(c.NotAfter) {
		t.Error("validity mismatch")
	}
	if len(got.DNSNames) != 1 || got.DNSNames[0] != "device.local" {
		t.Errorf("SANs: %v", got.DNSNames)
	}
	if got.N.Cmp(c.N) != 0 || got.E != c.E {
		t.Error("public key mismatch")
	}
	if string(got.Signature) != string(c.Signature) {
		t.Error("signature mismatch")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte{0xDE, 0xAD}); err == nil {
		t.Error("garbage accepted")
	}
	c, _ := testCert(t, 2)
	raw, _ := c.Marshal()
	if _, err := Parse(append(raw, 0x00)); err == nil {
		t.Error("trailing data accepted")
	}
	// An element past the last field, inside the certificate's SEQUENCE:
	// encoding/asn1 alone skips it, and the certificate would then share
	// its fingerprint with the one without it.
	var seq asn1.RawValue
	if _, err := asn1.Unmarshal(raw, &seq); err != nil {
		t.Fatal(err)
	}
	seq.Bytes, seq.FullBytes = append(seq.Bytes, 0x05, 0x00), nil
	extra, err := asn1.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(extra); err == nil {
		t.Error("extra element inside the certificate accepted")
	}
}

// TestParseRejectsNonPositiveModulus: a certificate whose modulus is
// zero or negative marshals, but does not parse, so it cannot load
// through a corpus file into batch GCD or the check index.
func TestParseRejectsNonPositiveModulus(t *testing.T) {
	for _, n := range []int64{0, -35} {
		c, _ := testCert(t, 3)
		c.N = big.NewInt(n)
		raw, err := c.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(raw); err == nil || !strings.Contains(err.Error(), "not positive") {
			t.Errorf("Parse of a certificate with N = %d: err = %v, want not positive", n, err)
		}
	}
}

func TestMarshalRequiresFields(t *testing.T) {
	c := &Certificate{}
	if _, err := c.Marshal(); err == nil {
		t.Error("empty certificate marshaled")
	}
}

func TestSignVerify(t *testing.T) {
	c, _ := testCert(t, 3)
	if err := c.Verify(nil); err != nil {
		t.Errorf("valid signature rejected: %v", err)
	}
}

func TestVerifyFailsAfterBitError(t *testing.T) {
	// The paper observed bit-error certificates whose signatures of
	// course fail to verify; reproduce that.
	c, _ := testCert(t, 4)
	c.N = weakrsa.CorruptBits(c.N, 7)
	if err := c.Verify(nil); err == nil {
		t.Error("signature verified despite corrupted modulus")
	}
}

func TestVerifyFailsTamperedSubject(t *testing.T) {
	c, _ := testCert(t, 5)
	c.Subject.Organization = "Mallory"
	if err := c.Verify(nil); err == nil {
		t.Error("signature verified despite tampered subject")
	}
}

func TestVerifyUnsigned(t *testing.T) {
	k := testKey(t, 6)
	c, err := SelfSigned(big.NewInt(1), Name{CommonName: "x"}, time.Now(), time.Now(), nil, k.N, k.E, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(nil); err == nil {
		t.Error("unsigned certificate verified")
	}
}

func TestVerifyWithOverrideKey(t *testing.T) {
	// MITM substitution (Internet Rimon, Section 3.3.3): the ISP swaps
	// the public key, leaving the rest of the certificate (including the
	// signature) unchanged. The self-signature necessarily breaks — both
	// because the signed bytes changed and because the key did. The
	// untouched original still verifies.
	c, _ := testCert(t, 7)
	orig := *c
	k2 := testKey(t, 8)
	c.N = k2.N
	if err := c.Verify(nil); err == nil {
		t.Error("substituted key should break the self-signature")
	}
	if err := c.Verify(&orig); err == nil {
		t.Error("substitution changes the signed bytes; no key can verify it")
	}
	if err := orig.Verify(nil); err != nil {
		t.Errorf("original must still verify: %v", err)
	}
}

func TestFingerprintStability(t *testing.T) {
	c, _ := testCert(t, 9)
	f1, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := c.Fingerprint()
	if f1 != f2 {
		t.Error("fingerprint not deterministic")
	}
	c2, _ := testCert(t, 10)
	f3, _ := c2.Fingerprint()
	if f1 == f3 {
		t.Error("distinct certificates share a fingerprint")
	}
}

func TestModulusKey(t *testing.T) {
	c, k := testCert(t, 11)
	if c.ModulusKey() != string(k.N.Bytes()) {
		t.Error("ModulusKey mismatch")
	}
}

func TestNameString(t *testing.T) {
	n := Name{CommonName: "Default Common Name", Organization: "Default Organization", OrganizationalUnit: "Default Unit"}
	want := "CN=Default Common Name, O=Default Organization, OU=Default Unit"
	if got := n.String(); got != want {
		t.Errorf("got %q want %q", got, want)
	}
	if (Name{}).String() != "" {
		t.Error("empty name should render empty")
	}
	if got := (Name{Country: "DE"}).String(); got != "C=DE" {
		t.Errorf("got %q", got)
	}
}

func TestRoundTripEmptySANs(t *testing.T) {
	k := testKey(t, 12)
	c, err := SelfSigned(big.NewInt(5), Name{CommonName: "a"}, time.Unix(0, 0), time.Unix(1, 0), nil, k.N, k.E, k.D)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.DNSNames) != 0 {
		t.Errorf("SANs should be empty, got %v", got.DNSNames)
	}
}
