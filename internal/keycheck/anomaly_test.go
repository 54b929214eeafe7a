package keycheck

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/scanstore"
)

// Anomalous novel moduli for the online-probe verdicts. cpP/cpQ are
// consecutive primes straddling 2^63.5, so the Fermat ascent splits
// their product immediately; sfQ is a ~120-bit prime whose product with
// 641 falls to the probe's GCD with the product of the primes below 2²⁰.
var (
	cpP   = mustHex("b504f333f9de64e3")
	cpQ   = mustHex("b504f333f9de650f")
	cpMod = new(big.Int).Mul(cpP, cpQ)

	sfP   = big.NewInt(641)
	sfQ   = mustHex("d6e5f84c9ab31027fd5a3c0e917bab")
	sfMod = new(big.Int).Mul(sfP, sfQ)
)

// anomalySnapshot is the golden corpus plus a shared modulus: modN3
// served by two certificates with distinct subjects. One shard keeps
// verdict shard fields deterministically 0.
func anomalySnapshot(t *testing.T) *Snapshot {
	t.Helper()
	store := scanstore.New()
	c1 := certFor(t, 1, "Juniper", p1, p2)
	if err := store.AddCertObservation("10.0.0.1", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.HTTPS, c1); err != nil {
		t.Fatal(err)
	}
	store.AddBareKeyObservation("10.0.0.2", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, modN2)
	for i, org := range []string{"RouterWorks", "CamCo"} {
		c := certFor(t, int64(31+i), org, q1, q2)
		ip := fmt.Sprintf("10.0.1.%d", i+1)
		if err := store.AddCertObservation(ip, date(2013, 5, 2), scanstore.SourceRapid7, scanstore.HTTPS, c); err != nil {
			t.Fatal(err)
		}
	}
	fp1, err := c1.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpr := &fingerprint.Result{
		Factors: map[string]fingerprint.Factors{
			string(modN1.Bytes()): {P: p2, Q: p1},
			string(modN2.Bytes()): {P: p1, Q: p3},
		},
		Labels: map[[32]byte]fingerprint.Label{
			fp1: {Vendor: "Juniper", Method: fingerprint.BySubject},
		},
	}
	snap, err := Build(context.Background(), BuildInput{Store: store, Fingerprint: fpr, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestAnomalyGoldenResponses pins the complete JSON bodies of the four
// anomaly verdict classes the online service can answer beyond the
// batch-GCD pair.
func TestAnomalyGoldenResponses(t *testing.T) {
	svc := NewService(anomalySnapshot(t), Config{CacheSize: -1})
	mux := NewAPI(svc, nil, nil).Mux()

	cases := []struct {
		name     string
		body     string
		wantBody string
	}{
		{
			name: "member under two identities",
			body: fmt.Sprintf(`{"modulus_hex":"%s"}`, modN3.Text(16)),
			wantBody: `{"status":"shared_modulus","known":true,"modulus_bits":128,"shard":0,` +
				`"shared_with":2}`,
		},
		{
			name: "novel close-prime key",
			body: fmt.Sprintf(`{"modulus_hex":"%s"}`, cpMod.Text(16)),
			wantBody: `{"status":"fermat_weak","known":false,"modulus_bits":128,"shard":0,` +
				`"factor_p_hex":"b504f333f9de64e3","factor_q_hex":"b504f333f9de650f",` +
				`"divisor_hex":"b504f333f9de64e3"}`,
		},
		{
			name: "novel small-factor key",
			body: fmt.Sprintf(`{"modulus_hex":"%s"}`, sfMod.Text(16)),
			wantBody: `{"status":"small_factor","known":false,"modulus_bits":130,"shard":0,` +
				`"factor_p_hex":"281","factor_q_hex":"d6e5f84c9ab31027fd5a3c0e917bab",` +
				`"divisor_hex":"281"}`,
		},
		{
			name:     "clean key under an even exponent",
			body:     fmt.Sprintf(`{"modulus_hex":"%s","exponent_hex":"2"}`, modNc.Text(16)),
			wantBody: `{"status":"unsafe_exponent","known":false,"modulus_bits":128,"shard":0,"exponent_class":"even"}`,
		},
		{
			name:     "clean key under e=1",
			body:     fmt.Sprintf(`{"modulus_hex":"%s","exponent_hex":"1"}`, modNc.Text(16)),
			wantBody: `{"status":"unsafe_exponent","known":false,"modulus_bits":128,"shard":0,"exponent_class":"one"}`,
		},
		{
			name:     "clean key under an oversized exponent",
			body:     fmt.Sprintf(`{"modulus_hex":"%s","exponent_hex":"10000000001"}`, modNc.Text(16)),
			wantBody: `{"status":"unsafe_exponent","known":false,"modulus_bits":128,"shard":0,"exponent_class":"oversized"}`,
		},
		{
			// The small-exponent class (odd 3..65535) is census-only:
			// legal RSA must not flip the verdict.
			name:     "clean key under e=3 stays clean",
			body:     fmt.Sprintf(`{"modulus_hex":"%s","exponent_hex":"3"}`, modNc.Text(16)),
			wantBody: `{"status":"clean","known":false,"modulus_bits":128,"shard":0}`,
		},
		{
			// A compromised verdict outranks the exponent anomaly.
			name: "factored key under an even exponent stays factored",
			body: fmt.Sprintf(`{"modulus_hex":"%s","exponent_hex":"2"}`, modN1.Text(16)),
			wantBody: `{"status":"factored","known":true,"modulus_bits":128,"shard":0,` +
				`"factor_p_hex":"ba5e34293664b321","factor_q_hex":"cb1a897ef032256b",` +
				`"vendor":"Juniper","attribution":"subject"}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := postCheck(mux, tc.body)
			if rr.Code != http.StatusOK {
				t.Fatalf("HTTP %d; body %s", rr.Code, rr.Body)
			}
			if got := rr.Body.String(); got != tc.wantBody+"\n" {
				t.Errorf("body:\n got %s\nwant %s", got, tc.wantBody)
			}
		})
	}
}

// TestSharedModulusIngest drives the shared-modulus graph through the
// incremental path: a delta that re-observes a member under distinct
// identities flips it from clean to shared_modulus, the clean exemplar
// sample drops it, and counts only ever grow.
func TestSharedModulusIngest(t *testing.T) {
	snap := goldenSnapshot(t, 1)
	if v := snap.Check(modN3); v.Status != StatusClean || !v.Known {
		t.Fatalf("pre-ingest N3 = %+v, want clean member", v)
	}
	if got := snap.shared; got != 0 {
		t.Fatalf("golden snapshot shared = %d, want 0", got)
	}

	delta := scanstore.New()
	for i, org := range []string{"RouterWorks", "CamCo", "GateCo"} {
		c := certFor(t, int64(41+i), org, q1, q2)
		ip := fmt.Sprintf("10.0.2.%d", i+1)
		if err := delta.AddCertObservation(ip, date(2013, 6, 1), scanstore.SourceRapid7, scanstore.HTTPS, c); err != nil {
			t.Fatal(err)
		}
	}
	ns, rep, err := snap.Ingest(context.Background(), BuildInput{Store: delta})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeltaModuli != 0 || rep.Duplicates != 1 {
		t.Fatalf("report %+v, want duplicate-only delta", rep)
	}
	if ns == snap {
		t.Fatal("shared-only delta did not publish a successor")
	}
	if got := ns.shared; got != 1 {
		t.Errorf("successor shared = %d, want 1", got)
	}
	v := ns.Check(modN3)
	if v.Status != StatusSharedModulus || !v.Known || v.SharedWith != 3 {
		t.Errorf("post-ingest N3 = %+v, want shared_modulus with 3 identities", v)
	}
	if _, clean := ns.Exemplars(8); len(clean) != 0 {
		t.Errorf("clean exemplars %v still include the shared member", clean)
	}
	if got := ns.SharedExemplars(8); len(got) != 1 || got[0] != modN3.Text(16) {
		t.Errorf("shared exemplars %v, want [%s]", got, modN3.Text(16))
	}

	// A later delta with fewer identities must not shrink the count.
	delta2 := scanstore.New()
	c := certFor(t, 51, "OnlyOne", q1, q2)
	if err := delta2.AddCertObservation("10.0.3.1", date(2013, 7, 1), scanstore.SourceRapid7, scanstore.HTTPS, c); err != nil {
		t.Fatal(err)
	}
	ns2, _, err := ns.Ingest(context.Background(), BuildInput{Store: delta2})
	if err != nil {
		t.Fatal(err)
	}
	if v := ns2.Check(modN3); v.SharedWith != 3 {
		t.Errorf("shrinking delta dropped the identity count: %+v", v)
	}

	// The predecessor is untouched (immutability contract).
	if v := snap.Check(modN3); v.Status != StatusClean {
		t.Errorf("predecessor mutated: %+v", v)
	}
}

// TestSharedExemplarsEndpoint: /v1/exemplars lists shared members once
// the snapshot has any.
func TestSharedExemplarsEndpoint(t *testing.T) {
	svc := NewService(anomalySnapshot(t), Config{CacheSize: -1})
	mux := NewAPI(svc, nil, nil).Mux()
	req := httptest.NewRequest(http.MethodGet, "/v1/exemplars?n=4", nil)
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("HTTP %d", rr.Code)
	}
	var ex exemplarsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.Shared) != 1 || ex.Shared[0] != modN3.Text(16) {
		t.Errorf("shared exemplars %v, want [%s]", ex.Shared, modN3.Text(16))
	}
	if len(ex.Clean) != 0 {
		t.Errorf("clean exemplars %v, want none (the only clean member is shared)", ex.Clean)
	}
}

// TestApplyExponentClasses pins the upgrade matrix of ApplyExponent.
func TestApplyExponentClasses(t *testing.T) {
	clean := Verdict{Status: StatusClean}
	cases := []struct {
		e         *big.Int
		wantClass string
	}{
		{big.NewInt(1), "one"},
		{big.NewInt(6), "even"},
		{big.NewInt(0), "nonpositive"},
		{new(big.Int).Add(new(big.Int).Lsh(one, 80), one), "oversized"},
		{big.NewInt(3), ""},     // small: census-only
		{big.NewInt(65537), ""}, // ok
		{nil, ""},               // no exponent submitted
	}
	for _, tc := range cases {
		v := ApplyExponent(clean, tc.e)
		if tc.wantClass == "" {
			if v.Status != StatusClean || v.ExponentClass != "" {
				t.Errorf("e=%v upgraded to %s/%s", tc.e, v.Status, v.ExponentClass)
			}
			continue
		}
		if v.Status != StatusUnsafeExponent || v.ExponentClass != tc.wantClass {
			t.Errorf("e=%v = %s/%s, want unsafe_exponent/%s", tc.e, v.Status, v.ExponentClass, tc.wantClass)
		}
	}
	factored := Verdict{Status: StatusFactored}
	if v := ApplyExponent(factored, big.NewInt(2)); v.Status != StatusFactored {
		t.Errorf("factored verdict downgraded to %s", v.Status)
	}
}

// TestVerdictCompromised: the two probe classes convict; shared_modulus
// and unsafe_exponent do not claim private-key recovery.
func TestVerdictCompromised(t *testing.T) {
	for st, want := range map[Status]bool{
		StatusFactored:       true,
		StatusSharedFactor:   true,
		StatusFermatWeak:     true,
		StatusSmallFactor:    true,
		StatusSharedModulus:  false,
		StatusUnsafeExponent: false,
		StatusClean:          false,
	} {
		if got := (Verdict{Status: st}).Compromised(); got != want {
			t.Errorf("Compromised(%s) = %v, want %v", st, got, want)
		}
	}
}

// TestMemberSkipsProbes: corpus members never pay for (or get flagged
// by) the online probes — the offline anomaly pass covers members. A
// member that would be Fermat-factorable still answers by membership.
func TestMemberSkipsProbes(t *testing.T) {
	store := scanstore.New()
	store.AddBareKeyObservation("10.0.0.9", date(2013, 5, 1), scanstore.SourceRapid7, scanstore.SSH, cpMod)
	snap, err := Build(context.Background(), BuildInput{Store: store, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := snap.Check(cpMod)
	if v.Status != StatusClean || !v.Known {
		t.Errorf("member close-prime key = %+v, want clean/known (probes are for novel keys)", v)
	}
}
