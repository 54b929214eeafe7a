// Package keycheck is the serving layer of the study: an online weak-key
// lookup service over a completed corpus, the reproduction of
// factorable.net's "check my key" endpoint that the original batch-GCD
// papers deployed and that "Ensuring High-Quality Randomness in
// Cryptographic Key Generation" proposes as a registration-time check.
//
// The queryable artifact is an immutable Snapshot: the corpus's distinct
// moduli sharded by modulus hash, each shard holding the exact set of
// every observed modulus, a map of the factored ones among them, and the
// shard's modulus product for the GCD path. A submitted modulus that is
// in the corpus answers from the set and map alone; a novel one is
// still checked by GCD against every shard's product —
// exactly how factorable.net handled fresh submissions, and the reason
// an online service is more than a set lookup: a key never seen by any
// scan is still compromised if it shares a prime with the corpus.
//
// Snapshots are published through an Index and swapped atomically, so
// new study results are folded in without blocking readers. Service
// wraps an Index with the production serving path — bounded worker
// pool, LRU verdict cache, graceful drain, telemetry — and NewAPI exposes it over HTTP (POST /v1/check, GET /v1/stats).
package keycheck

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"strings"

	"github.com/factorable/weakkeys/internal/anomaly"
)

// Status classifies a checked modulus.
type Status string

const (
	// StatusFactored: the modulus is in the corpus and batch GCD
	// recovered its factorization. The key is compromised.
	StatusFactored Status = "factored"
	// StatusSharedFactor: the modulus is novel but shares a prime with
	// the corpus; the GCD path recovered the factorization on the spot.
	// The key is compromised.
	StatusSharedFactor Status = "shared_factor"
	// StatusFermatWeak: the modulus is novel and the online Fermat probe
	// split it — its primes are close enough that the factorization falls
	// out in a bounded ascent from sqrt(N). The key is compromised.
	StatusFermatWeak Status = "fermat_weak"
	// StatusSmallFactor: the modulus is novel and has a prime factor
	// below 2²⁰, which the probe's GCD recovered. The key is compromised.
	StatusSmallFactor Status = "small_factor"
	// StatusSharedModulus: the modulus is in the corpus and was observed
	// there under two or more distinct identities — no factorization is
	// known, but any identity holding the private key can impersonate or
	// decrypt every other. The key must be treated as compromised.
	StatusSharedModulus Status = "shared_modulus"
	// StatusUnsafeExponent: the submission carried a public exponent that
	// breaks RSA outright (e = 1 or even e) or falls outside sane bounds.
	// The modulus itself may be fine; the key as used is not.
	StatusUnsafeExponent Status = "unsafe_exponent"
	// StatusClean: no shared factor with the corpus is known and no
	// anomaly probe fired. Not a proof of safety — only that this corpus
	// and these probes cannot break the key.
	StatusClean Status = "clean"
)

// Verdict is the service's answer for one modulus. Field order is the
// wire order of the JSON API.
type Verdict struct {
	Status Status `json:"status"`
	// Known reports whether the modulus itself appears in the corpus.
	Known bool `json:"known"`
	// ModulusBits is the submitted modulus's bit length.
	ModulusBits int `json:"modulus_bits"`
	// Shard is the home shard of the modulus hash.
	Shard int `json:"shard"`
	// FactorP/FactorQ (hex, P <= Q) are set when a full factorization
	// is known or was recovered by the GCD path.
	FactorP string `json:"factor_p_hex,omitempty"`
	FactorQ string `json:"factor_q_hex,omitempty"`
	// Divisor (hex) is the nontrivial divisor behind the verdict. For
	// shared_factor it is the common divisor the GCD path found. For
	// small_factor and fermat_weak it is the probe's smaller factor,
	// FactorP: on small_factor the smaller of g and n/g, where g is the
	// product of n's distinct primes below 2²⁰ (n's smallest prime when
	// that product is n itself); on fermat_weak the smaller prime.
	Divisor string `json:"divisor_hex,omitempty"`
	// Vendor/Attribution carry the internal/fingerprint vendor label of
	// the corpus certificate serving this modulus, when one exists.
	Vendor      string `json:"vendor,omitempty"`
	Attribution string `json:"attribution,omitempty"`
	// Cached marks a verdict answered from the LRU cache.
	Cached bool `json:"cached,omitempty"`
	// Partial marks a verdict from a cluster replica that does not own
	// the modulus's home shard: the membership half (Known, exact
	// factors) is unauthoritative and only the replica's own shard
	// products were consulted. A compromised verdict is still
	// definitive; a clean one is not. The router strips this flag once
	// it has gathered full coverage.
	Partial bool `json:"partial,omitempty"`
	// SharedWith is the number of distinct identities the corpus observed
	// serving this modulus, for a shared_modulus verdict.
	SharedWith int `json:"shared_with,omitempty"`
	// ExponentClass names the anomaly class of the submitted public
	// exponent for an unsafe_exponent verdict ("one", "even",
	// "nonpositive", "oversized").
	ExponentClass string `json:"exponent_class,omitempty"`
}

// Compromised reports whether the verdict means the private key is
// recoverable from public data.
func (v Verdict) Compromised() bool {
	switch v.Status {
	case StatusFactored, StatusSharedFactor, StatusFermatWeak, StatusSmallFactor:
		return true
	}
	return false
}

// ApplyExponent folds a submitted public exponent into a verdict:
// a clean verdict upgrades to unsafe_exponent when the exponent's
// census class is broken outright (e = 1, even e, nonpositive, or
// oversized). The small-exponent class (odd e in 3..65535) is legal
// RSA and stays census-only — it never flips a verdict. Compromised
// verdicts are worse than the exponent and are left untouched.
func ApplyExponent(v Verdict, e *big.Int) Verdict {
	if e == nil || v.Status != StatusClean {
		return v
	}
	switch cls := anomaly.ClassifyExponent(e); cls {
	case anomaly.ExponentOne, anomaly.ExponentEven,
		anomaly.ExponentNonPositive, anomaly.ExponentOversized:
		v.Status = StatusUnsafeExponent
		v.ExponentClass = string(cls)
	}
	return v
}

// Submission limits. MaxModulusBits bounds the accepted key size so a
// hostile client cannot feed multi-megabyte integers into the GCD path;
// MinModulusBits rejects degenerate toy inputs.
const (
	MaxModulusBits = 16384
	MinModulusBits = 16
)

// ErrMalformed wraps every submission-parsing failure; the HTTP layer
// maps it to 400.
var ErrMalformed = errors.New("keycheck: malformed submission")

// ParseModulusHex parses a hex-encoded modulus submission (with or
// without an 0x prefix) and validates its size.
func ParseModulusHex(s string) (*big.Int, error) {
	s = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(s), "0x"))
	if s == "" {
		return nil, fmt.Errorf("%w: empty modulus_hex", ErrMalformed)
	}
	if len(s)%2 == 1 {
		s = "0" + s
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("%w: modulus_hex: %v", ErrMalformed, err)
	}
	return validateModulus(new(big.Int).SetBytes(raw))
}

func validateModulus(n *big.Int) (*big.Int, error) {
	if n == nil || n.Sign() <= 0 {
		return nil, fmt.Errorf("%w: modulus must be positive", ErrMalformed)
	}
	if bits := n.BitLen(); bits < MinModulusBits || bits > MaxModulusBits {
		return nil, fmt.Errorf("%w: modulus is %d bits, want %d..%d",
			ErrMalformed, bits, MinModulusBits, MaxModulusBits)
	}
	if n.Bit(0) == 0 {
		return nil, fmt.Errorf("%w: modulus is even", ErrMalformed)
	}
	return n, nil
}

func hexOf(n *big.Int) string { return n.Text(16) }
