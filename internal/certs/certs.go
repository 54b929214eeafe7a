// Package certs implements a lightweight X.509-style certificate: enough
// structure for the study (subject distinguished names, subject
// alternative names, RSA public keys, self-signatures, DER encoding via
// encoding/asn1) without the full generality of crypto/x509.
//
// The paper's pipeline treats certificates as data harvested by scans:
// what matters is the RSA modulus, the distinguished-name fields used for
// vendor fingerprinting (Section 3.3.1), the SANs (Fritz!Box
// identification), and byte-exact round-tripping so that distinct-
// certificate and distinct-modulus dedup behave like the real corpus.
package certs

import (
	"bytes"
	"crypto/sha256"
	"encoding/asn1"
	"errors"
	"fmt"
	"math/big"
	"time"
)

// Name is a simplified distinguished name covering the fields the paper's
// fingerprints rely on.
type Name struct {
	CommonName         string
	Organization       string
	OrganizationalUnit string
	Country            string
	Locality           string
}

// String renders the name in the conventional comma-separated form, e.g.
// "CN=system generated, O=Juniper".
func (n Name) String() string {
	out := ""
	add := func(k, v string) {
		if v == "" {
			return
		}
		if out != "" {
			out += ", "
		}
		out += k + "=" + v
	}
	add("CN", n.CommonName)
	add("O", n.Organization)
	add("OU", n.OrganizationalUnit)
	add("C", n.Country)
	add("L", n.Locality)
	return out
}

// Certificate is the in-memory form. Issuer == Subject for the
// self-signed device certificates that dominate the study.
type Certificate struct {
	SerialNumber *big.Int
	Subject      Name
	Issuer       Name
	NotBefore    time.Time
	NotAfter     time.Time
	// DNSNames are subject alternative names (e.g. fritz.box).
	DNSNames []string
	// N and E form the RSA public key.
	N *big.Int
	E int
	// Signature is the raw RSA signature over the TBS digest; see Sign.
	Signature []byte
}

// der mirrors Certificate for asn1 marshaling.
type der struct {
	Serial    *big.Int
	Subject   derName
	Issuer    derName
	NotBefore int64 // Unix seconds; asn1 UTCTime caps at 2049 anyway
	NotAfter  int64
	DNSNames  []string `asn1:"optional,omitempty"`
	N         *big.Int
	E         int
	Signature []byte
}

// derName is Name's wire form, declared apart so that a change to Name
// cannot change the encoding unseen: the conversions between the two
// compile only while their fields match.
type derName struct {
	CommonName, Organization, OrganizationalUnit, Country, Locality string
}

// Marshal encodes the certificate to DER bytes.
func (c *Certificate) Marshal() ([]byte, error) {
	if c.N == nil || c.SerialNumber == nil {
		return nil, errors.New("certs: missing modulus or serial")
	}
	d := der{
		Serial:    c.SerialNumber,
		Subject:   derName(c.Subject),
		Issuer:    derName(c.Issuer),
		NotBefore: c.NotBefore.Unix(),
		NotAfter:  c.NotAfter.Unix(),
		DNSNames:  c.DNSNames,
		N:         c.N,
		E:         c.E,
		Signature: c.Signature,
	}
	return asn1.Marshal(d)
}

// Parse decodes DER bytes produced by Marshal. Trailing data, and any
// encoding Marshal would not produce, is an error, as it would be for a
// strict DER parser; so is a modulus that is not positive.
func Parse(data []byte) (*Certificate, error) {
	var d der
	rest, err := asn1.Unmarshal(data, &d)
	if err != nil {
		return nil, fmt.Errorf("certs: parse: %w", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("certs: trailing data after certificate")
	}
	c := &Certificate{
		SerialNumber: d.Serial,
		Subject:      Name(d.Subject),
		Issuer:       Name(d.Issuer),
		NotBefore:    time.Unix(d.NotBefore, 0).UTC(),
		NotAfter:     time.Unix(d.NotAfter, 0).UTC(),
		DNSNames:     d.DNSNames,
		N:            d.N,
		E:            d.E,
		Signature:    d.Signature,
	}
	// encoding/asn1 skips elements past the last field of a SEQUENCE and
	// accepts an empty optional list Marshal would omit. Either would let
	// two encodings share one certificate and its fingerprint.
	if re, err := c.Marshal(); err != nil || !bytes.Equal(re, data) {
		return nil, errors.New("certs: not the canonical encoding of a certificate")
	}
	// No RSA key has a modulus below 1, and a zero one would divide
	// every product it joins: batch GCD and the check index refuse it.
	if c.N.Sign() <= 0 {
		return nil, errors.New("certs: modulus is not positive")
	}
	return c, nil
}

// tbsDigest hashes everything except the signature. The digest is what
// Sign raises to the private exponent.
func (c *Certificate) tbsDigest() ([]byte, error) {
	tmp := *c
	tmp.Signature = nil
	raw, err := tmp.Marshal()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	return sum[:], nil
}

// Sign self-signs the certificate with the RSA private exponent d for the
// certificate's own public key: signature = digest^d mod N. This is
// textbook RSA over a SHA-256 digest — no PKCS#1 padding — which is all
// the simulation needs; the study never relies on signature strength,
// only on signatures failing to verify after bit corruption
// (Section 3.3.5 notes exactly this for the bit-error certificates).
func (c *Certificate) Sign(d *big.Int) error {
	digest, err := c.tbsDigest()
	if err != nil {
		return err
	}
	// Reduce the digest modulo N first: the simulation's moduli may be
	// smaller than a SHA-256 digest.
	m := new(big.Int).SetBytes(digest)
	m.Mod(m, c.N)
	sig := new(big.Int).Exp(m, d, c.N)
	c.Signature = sig.Bytes()
	return nil
}

// SignWith signs the certificate with an issuer's key (CA issuance):
// signature = digest^issuerD mod issuerN. Verify with the issuer
// certificate passed as the override.
func (c *Certificate) SignWith(issuerN, issuerD *big.Int) error {
	digest, err := c.tbsDigest()
	if err != nil {
		return err
	}
	m := new(big.Int).SetBytes(digest)
	m.Mod(m, issuerN)
	c.Signature = m.Exp(m, issuerD, issuerN).Bytes()
	return nil
}

// Verify checks the self-signature against the certificate's own public
// key (or against override if non-nil, for chained checks).
func (c *Certificate) Verify(override *Certificate) error {
	if len(c.Signature) == 0 {
		return errors.New("certs: unsigned certificate")
	}
	n, e := c.N, c.E
	if override != nil {
		n, e = override.N, override.E
	}
	digest, err := c.tbsDigest()
	if err != nil {
		return err
	}
	sig := new(big.Int).SetBytes(c.Signature)
	m := new(big.Int).Exp(sig, big.NewInt(int64(e)), n)
	want := new(big.Int).SetBytes(digest)
	want.Mod(want, n)
	if m.Cmp(want) != 0 {
		return errors.New("certs: signature verification failed")
	}
	return nil
}

// Fingerprint returns the SHA-256 of the DER encoding, the identity used
// for distinct-certificate dedup throughout the pipeline.
func (c *Certificate) Fingerprint() ([32]byte, error) {
	raw, err := c.Marshal()
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(raw), nil
}

// ModulusKey returns a map key identifying the RSA modulus, used for
// distinct-modulus dedup.
func (c *Certificate) ModulusKey() string {
	return string(c.N.Bytes())
}

// SelfSigned builds and signs a certificate in one step.
func SelfSigned(serial *big.Int, subject Name, notBefore, notAfter time.Time, dnsNames []string, n *big.Int, e int, d *big.Int) (*Certificate, error) {
	c := &Certificate{
		SerialNumber: serial,
		Subject:      subject,
		Issuer:       subject,
		NotBefore:    notBefore,
		NotAfter:     notAfter,
		DNSNames:     dnsNames,
		N:            n,
		E:            e,
	}
	if d != nil {
		if err := c.Sign(d); err != nil {
			return nil, err
		}
	}
	return c, nil
}
