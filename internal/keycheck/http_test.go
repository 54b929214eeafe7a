package keycheck

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/factorable/weakkeys/internal/telemetry"
)

// newTestAPI serves the golden corpus with a single shard so the
// verdicts' shard field is deterministically 0. Caching is disabled so
// golden bodies never grow a "cached":true field; rate limiting is off
// unless the test passes a limiter.
func newTestAPI(t *testing.T, limiter *RateLimiter, reg *telemetry.Registry) (*API, *Service) {
	t.Helper()
	snap := goldenSnapshot(t, 1)
	svc := NewService(snap, Config{CacheSize: -1, Metrics: reg})
	return NewAPI(svc, limiter, reg), svc
}

func postCheck(mux *http.ServeMux, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(body))
	req.RemoteAddr = "192.0.2.1:4242"
	// A fixed inbound ID keeps error bodies (which echo it) golden.
	req.Header.Set("X-Request-Id", "golden-test")
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	return rr
}

// TestGoldenResponses pins the complete JSON bodies of the API's four
// canonical answers: a factored corpus key, a novel key sharing a prime
// with the corpus, a clean key, and a malformed submission.
func TestGoldenResponses(t *testing.T) {
	api, _ := newTestAPI(t, nil, nil)
	mux := api.Mux()

	cases := []struct {
		name     string
		body     string
		wantCode int
		wantBody string
	}{
		{
			name:     "factored corpus key",
			body:     fmt.Sprintf(`{"modulus_hex":"%s"}`, modN1.Text(16)),
			wantCode: http.StatusOK,
			wantBody: `{"status":"factored","known":true,"modulus_bits":128,"shard":0,` +
				`"factor_p_hex":"ba5e34293664b321","factor_q_hex":"cb1a897ef032256b",` +
				`"vendor":"Juniper","attribution":"subject"}`,
		},
		{
			name:     "novel key sharing a factor",
			body:     fmt.Sprintf(`{"modulus_hex":"%s"}`, modNs.Text(16)),
			wantCode: http.StatusOK,
			wantBody: `{"status":"shared_factor","known":false,"modulus_bits":128,"shard":0,` +
				`"factor_p_hex":"a627d0c250f0d6ab","factor_q_hex":"cddf196d1cc15f59",` +
				`"divisor_hex":"cddf196d1cc15f59"}`,
		},
		{
			name:     "clean novel key",
			body:     fmt.Sprintf(`{"modulus_hex":"0x%s"}`, modNc.Text(16)), // 0x prefix accepted
			wantCode: http.StatusOK,
			wantBody: `{"status":"clean","known":false,"modulus_bits":128,"shard":0}`,
		},
		{
			name:     "clean corpus key",
			body:     fmt.Sprintf(`{"modulus_hex":"%s"}`, modN3.Text(16)),
			wantCode: http.StatusOK,
			wantBody: `{"status":"clean","known":true,"modulus_bits":128,"shard":0}`,
		},
		{
			name:     "malformed: empty envelope",
			body:     `{}`,
			wantCode: http.StatusBadRequest,
			wantBody: `{"error":"keycheck: malformed submission: set one of modulus_hex, cert_pem, cert_der","request_id":"golden-test"}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := postCheck(mux, tc.body)
			if rr.Code != tc.wantCode {
				t.Fatalf("HTTP %d, want %d; body %s", rr.Code, tc.wantCode, rr.Body)
			}
			if got := rr.Body.String(); got != tc.wantBody+"\n" {
				t.Errorf("body:\n got %s\nwant %s", got, tc.wantBody)
			}
			if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("Content-Type %q", ct)
			}
		})
	}
}

func TestMalformedSubmissions(t *testing.T) {
	api, _ := newTestAPI(t, nil, nil)
	mux := api.Mux()
	for _, body := range []string{
		`{"modulus_hex":"zz"}`,               // not hex
		`{"modulus_hex":""}`,                 // empty
		`{"modulus_hex":"10"}`,               // 5 bits, below MinModulusBits
		`{"modulus_hex":"0de0b6b3a763fffe"}`, // even
		`how do i check my key`,              // not JSON, not PEM
		`{"cert_pem":"-----BEGIN NOTHING-----"}`,
		`{"cert_der":"anVuaw=="}`, // base64 "junk": not a certificate
	} {
		rr := postCheck(mux, body)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("body %q: HTTP %d, want 400 (%s)", body, rr.Code, rr.Body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "malformed") {
			t.Errorf("body %q: error response %s", body, rr.Body)
		}
	}
}

// TestPEMSubmission covers the three certificate submission routes: a
// raw PEM body, the cert_pem JSON field, and base64 DER. All must
// resolve to the same factored verdict as the modulus itself.
func TestPEMSubmission(t *testing.T) {
	api, _ := newTestAPI(t, nil, nil)
	mux := api.Mux()
	c := certFor(t, 9, "Juniper", p1, p2)
	var pem bytes.Buffer
	if err := c.EncodePEM(&pem); err != nil {
		t.Fatal(err)
	}
	der, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	bodies := map[string]string{
		"raw PEM":  pem.String(),
		"cert_pem": string(mustJSON(t, checkRequest{CertPEM: pem.String()})),
		"cert_der": string(mustJSON(t, checkRequest{CertDER: der})),
	}
	for name, body := range bodies {
		rr := postCheck(mux, body)
		if rr.Code != http.StatusOK {
			t.Errorf("%s: HTTP %d (%s)", name, rr.Code, rr.Body)
			continue
		}
		var v Verdict
		if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		if v.Status != StatusFactored || v.Vendor != "Juniper" {
			t.Errorf("%s: verdict %+v, want factored Juniper", name, v)
		}
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// FuzzParseSubmission feeds arbitrary /v1/check bodies to the one
// submission parser the service and the cluster router share. It must
// not panic; a rejection must be an ErrMalformed (the 400 mapping); an
// accepted modulus must be inside the limits the GCD path relies on;
// and an exponent may come back only from a submission that carried
// one. Seeds are the golden request bodies of http_test.go in every
// accepted form, and truncations of each; testdata/fuzz adds the forms
// those do not reach (bare modulus PEM, padded and odd-length hex) and
// one rejection per validation rule.
func FuzzParseSubmission(f *testing.F) {
	c := certFor(f, 9, "Juniper", p1, p2)
	var pem bytes.Buffer
	if err := c.EncodePEM(&pem); err != nil {
		f.Fatal(err)
	}
	der, err := c.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		fmt.Appendf(nil, `{"modulus_hex":"%s"}`, modN1.Text(16)),
		fmt.Appendf(nil, `{"modulus_hex":"0x%s"}`, modNc.Text(16)),
		fmt.Appendf(nil, `{"modulus_hex":"%s","exponent_hex":"10001"}`, modNc.Text(16)),
		mustJSON(f, checkRequest{CertPEM: pem.String()}),
		mustJSON(f, checkRequest{CertDER: der}),
		pem.Bytes(),
	} {
		for _, n := range []int{len(seed), len(seed) - 1, len(seed) / 2, 12} {
			f.Add(seed[:n])
		}
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		n, e, err := ParseSubmissionWithExponent(body)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("rejection is not ErrMalformed: %v", err)
			}
			return
		}
		if bits := n.BitLen(); n.Sign() <= 0 || bits < MinModulusBits || bits > MaxModulusBits {
			t.Fatalf("accepted a %d-bit modulus (sign %d)", bits, n.Sign())
		}
		if e == nil || bytes.HasPrefix(bytes.TrimSpace(body), []byte("-----BEGIN")) {
			return
		}
		var req checkRequest
		if json.Unmarshal(body, &req) != nil || (req.ExponentHex == "" && req.CertPEM == "" && len(req.CertDER) == 0) {
			t.Fatalf("exponent %v from a submission that carried none", e)
		}
	})
}

// FuzzParseIngest feeds arbitrary /v1/ingest bodies to the one ingest
// decoder the API and the cluster router share. It must not panic; a
// rejection must be an ErrMalformed (the 400 mapping) and return
// nothing; an accepted batch must be non-empty, within the per-request
// cap, and carry one in-limits modulus per submitted string, index for
// index. Seeds are TestIngestEndpoint's bodies and truncations of each;
// testdata/fuzz adds the envelope forms those do not reach.
func FuzzParseIngest(f *testing.F) {
	for _, seed := range [][]byte{
		fmt.Appendf(nil, `{"moduli_hex":["%s","%s"]}`, modN1.Text(16), modNc.Text(16)),
		fmt.Appendf(nil, `{"moduli_hex":["0x%s"]}`, modNc.Text(16)),
		fmt.Appendf(nil, `{"moduli_hex":["%s","nothex"]}`, modN1.Text(16)),
		[]byte(`{"moduli_hex":[]}`),
	} {
		for _, n := range []int{len(seed), len(seed) - 1, len(seed) / 2} {
			f.Add(seed[:n])
		}
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		hexes, mods, err := ParseIngest(body)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("rejection is not ErrMalformed: %v", err)
			}
			if hexes != nil || mods != nil {
				t.Fatalf("rejection returned %d hexes / %d moduli", len(hexes), len(mods))
			}
			return
		}
		if len(hexes) == 0 || len(hexes) > maxIngestModuli || len(mods) != len(hexes) {
			t.Fatalf("accepted %d hexes / %d moduli", len(hexes), len(mods))
		}
		for i, n := range mods {
			want, err := ParseModulusHex(hexes[i])
			if err != nil || want.Cmp(n) != 0 {
				t.Fatalf("moduli[%d] = %v, but ParseModulusHex(%q) = %v, %v", i, n, hexes[i], want, err)
			}
		}
	})
}

func TestCheckMethodNotAllowed(t *testing.T) {
	api, _ := newTestAPI(t, nil, nil)
	req := httptest.NewRequest(http.MethodGet, "/v1/check", nil)
	rr := httptest.NewRecorder()
	api.Mux().ServeHTTP(rr, req)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/check: HTTP %d, want 405", rr.Code)
	}
}

// TestRateLimiting drives one client past its burst and checks both the
// 429 and that a distinct client (different X-Forwarded-For hop) still
// has its own budget.
func TestRateLimiting(t *testing.T) {
	reg := telemetry.New()
	api, _ := newTestAPI(t, NewRateLimiter(1, 3), reg)
	mux := api.Mux()
	body := fmt.Sprintf(`{"modulus_hex":"%s"}`, modNc.Text(16))

	do := func(client string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(body))
		req.RemoteAddr = "192.0.2.1:4242"
		req.Header.Set("X-Forwarded-For", client+", 10.0.0.1")
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, req)
		return rr
	}

	for i := 0; i < 3; i++ {
		if rr := do("a"); rr.Code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d (%s)", i, rr.Code, rr.Body)
		}
	}
	rr := do("a")
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over burst: HTTP %d, want 429", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if rr := do("b"); rr.Code != http.StatusOK {
		t.Errorf("distinct client limited: HTTP %d", rr.Code)
	}
	if got := reg.CounterValue("keycheck_ratelimited_total"); got != 1 {
		t.Errorf("keycheck_ratelimited_total = %d, want 1", got)
	}
}

func TestStatsEndpoint(t *testing.T) {
	reg := telemetry.New()
	api, svc := newTestAPI(t, NewRateLimiter(100, 100), reg)
	mux := api.Mux()
	postCheck(mux, fmt.Sprintf(`{"modulus_hex":"%s"}`, modN1.Text(16)))

	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	req.RemoteAddr = "192.0.2.1:4242"
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("HTTP %d", rr.Code)
	}
	var st statsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Index.Moduli != 3 || st.Index.Factored != 2 {
		t.Errorf("index stats %+v", st.Index)
	}
	if st.TrackedClients != 1 {
		t.Errorf("tracked clients = %d, want 1", st.TrackedClients)
	}

	svc.Publish(goldenSnapshot(t, 1))
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.SnapshotSwaps != 1 {
		t.Errorf("snapshot swaps = %d, want 1", st.SnapshotSwaps)
	}
}

func TestExemplarsEndpoint(t *testing.T) {
	api, _ := newTestAPI(t, nil, nil)
	mux := api.Mux()
	req := httptest.NewRequest(http.MethodGet, "/v1/exemplars?n=2", nil)
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("HTTP %d", rr.Code)
	}
	var ex exemplarsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.Factored) != 2 || len(ex.Clean) != 1 {
		t.Errorf("exemplars %d/%d, want 2 factored, 1 clean", len(ex.Factored), len(ex.Clean))
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/exemplars?n=0", nil)
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("n=0: HTTP %d, want 400", rr.Code)
	}
}

// TestCachedVerdict: with caching on, a repeat submission answers from
// the LRU and says so on the wire.
func TestCachedVerdict(t *testing.T) {
	reg := telemetry.New()
	snap := goldenSnapshot(t, 1)
	svc := NewService(snap, Config{Metrics: reg})
	mux := NewAPI(svc, nil, reg).Mux()
	body := fmt.Sprintf(`{"modulus_hex":"%s"}`, modN1.Text(16))

	first := postCheck(mux, body)
	second := postCheck(mux, body)
	if strings.Contains(first.Body.String(), `"cached":true`) {
		t.Error("first response claims cached")
	}
	if !strings.Contains(second.Body.String(), `"cached":true`) {
		t.Errorf("repeat response not cached: %s", second.Body)
	}
	if hits := reg.CounterValue("keycheck_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if got := reg.CounterValue(`keycheck_http_requests_total{code="200"}`); got != 2 {
		t.Errorf(`keycheck_http_requests_total{code="200"} = %d, want 2`, got)
	}
	if got := reg.CounterValue(`keycheck_checks_total{verdict="factored"}`); got != 2 {
		t.Errorf("factored verdict counter = %d, want 2", got)
	}
}

// TestIngestEndpoint drives the live-update path over HTTP: a novel
// weak pair flips from clean to factored without a rebuild, a replay
// counts only duplicates, malformed and oversized requests are
// rejected atomically, and the endpoint can be disabled.
func TestIngestEndpoint(t *testing.T) {
	reg := telemetry.New()
	api, svc := newTestAPI(t, nil, reg)
	mux := api.Mux()

	post := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body))
		req.RemoteAddr = "192.0.2.7:4242"
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, req)
		return rr
	}

	// A fresh weak pair: both still clean before the ingest.
	w1 := new(big.Int).Mul(s4, s5)
	w2 := new(big.Int).Mul(s4, s6)
	if v, _ := svc.Check(context.Background(), w1); v.Status != StatusClean {
		t.Fatalf("pre-ingest w1 = %+v", v)
	}

	rr := post(fmt.Sprintf(`{"moduli_hex":["%s","%s"]}`, w1.Text(16), w2.Text(16)))
	if rr.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rr.Code, rr.Body)
	}
	var rep IngestReport
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.DeltaModuli != 2 || rep.NewFactored != 2 {
		t.Errorf("report %+v, want 2 delta / 2 factored", rep)
	}
	if v, _ := svc.Check(context.Background(), w1); v.Status != StatusFactored || !v.Known {
		t.Errorf("post-ingest w1 = %+v, want factored/known", v)
	}
	if got := reg.CounterValue(`keycheck_ingest_total{outcome="ok"}`); got != 1 {
		t.Errorf(`keycheck_ingest_total{outcome="ok"} = %d`, got)
	}
	if got := reg.CounterValue("keycheck_ingest_factored_total"); got != 2 {
		t.Errorf("keycheck_ingest_factored_total = %d", got)
	}

	// Replaying the same delta: nothing new, no snapshot swap.
	swaps := svc.Index().Swaps()
	rr = post(fmt.Sprintf(`{"moduli_hex":["%s"]}`, w1.Text(16)))
	if rr.Code != http.StatusOK {
		t.Fatalf("replay: %d %s", rr.Code, rr.Body)
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Duplicates != 1 || rep.DeltaModuli != 0 {
		t.Errorf("replay report %+v, want 1 duplicate", rep)
	}
	if svc.Index().Swaps() != swaps {
		t.Error("duplicate-only ingest published a snapshot")
	}

	// A malformed modulus rejects the whole request: nothing applied.
	before := svc.Index().Snapshot()
	rr = post(fmt.Sprintf(`{"moduli_hex":["%s","nothex"]}`, new(big.Int).Mul(s2, s3).Text(16)))
	if rr.Code != http.StatusBadRequest {
		t.Errorf("malformed batch: %d, want 400", rr.Code)
	}
	if svc.Index().Snapshot() != before {
		t.Error("malformed batch partially applied")
	}

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"empty list", `{"moduli_hex":[]}`, http.StatusBadRequest},
		{"bad json", `{`, http.StatusBadRequest},
	} {
		if rr := post(tc.body); rr.Code != tc.want {
			t.Errorf("%s: %d, want %d", tc.name, rr.Code, tc.want)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/ingest", nil)
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: %d, want 405", rr.Code)
	}

	api.SetAllowIngest(false)
	if rr := post(fmt.Sprintf(`{"moduli_hex":["%s"]}`, w1.Text(16))); rr.Code != http.StatusForbidden {
		t.Errorf("disabled ingest: %d, want 403", rr.Code)
	}
}
