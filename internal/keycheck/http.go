package keycheck

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/big"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// maxBodyBytes bounds a /v1/check request body (a 16384-bit modulus in
// hex is 4KB; PEM certificates a little more).
const maxBodyBytes = 1 << 20

// checkRequest is the JSON envelope for POST /v1/check. Exactly one of
// the fields must be set. A raw PEM body (starting with "-----BEGIN")
// is also accepted for curl-friendliness.
type checkRequest struct {
	// ModulusHex is the RSA modulus as hex, optional 0x prefix.
	ModulusHex string `json:"modulus_hex,omitempty"`
	// CertPEM is a WEAKKEYS CERTIFICATE (or RSA MODULUS) PEM.
	CertPEM string `json:"cert_pem,omitempty"`
	// CertDER is a DER certificate (base64-encoded by JSON).
	CertDER []byte `json:"cert_der,omitempty"`
	// ExponentHex optionally carries the public exponent alongside
	// modulus_hex, so the exponent-anomaly check (e = 1, even e, ...)
	// covers bare-modulus submissions too. Certificate submissions carry
	// their exponent already and ignore this field.
	ExponentHex string `json:"exponent_hex,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	// RequestID echoes the request's correlation ID so a client error
	// line can be joined against /debug/events and debug bundles.
	RequestID string `json:"request_id,omitempty"`
}

// statsResponse is the GET /v1/stats document.
type statsResponse struct {
	Index SnapshotStats `json:"index"`
	Cache struct {
		Size   int   `json:"size"`
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	SnapshotSwaps  int64 `json:"snapshot_swaps"`
	TrackedClients int   `json:"tracked_clients"`
}

// exemplarsResponse is the GET /v1/exemplars document: known-answer
// corpus keys for smoke tests and load generators.
type exemplarsResponse struct {
	Factored []string `json:"factored"`
	Clean    []string `json:"clean"`
	// Shared lists member moduli the corpus observed under two or more
	// distinct identities (shared_modulus exemplars).
	Shared []string `json:"shared,omitempty"`
}

// API serves the key-check HTTP endpoints for one Service.
type API struct {
	svc     *Service
	limiter *RateLimiter
	reg     *telemetry.Registry

	// allowIngest gates POST /v1/ingest (on by default; an operator
	// exposing the checker publicly turns the write path off).
	allowIngest bool

	requestSeconds *telemetry.Histogram
	rateLimited    *telemetry.Counter
}

// SetAllowIngest enables or disables POST /v1/ingest. Call before
// serving.
func (a *API) SetAllowIngest(allow bool) { a.allowIngest = allow }

// NewAPI wires a Service to HTTP. limiter may be nil (no rate limit);
// reg may be nil (no HTTP telemetry).
func NewAPI(svc *Service, limiter *RateLimiter, reg *telemetry.Registry) *API {
	if limiter != nil {
		limiter.evictions = reg.Counter("keycheck_ratelimit_evictions_total")
	}
	return &API{
		svc:            svc,
		limiter:        limiter,
		reg:            reg,
		allowIngest:    true,
		requestSeconds: reg.Histogram("keycheck_http_request_seconds", telemetry.DurationBuckets),
		rateLimited:    reg.Counter("keycheck_ratelimited_total"),
	}
}

// Mux returns the API routes:
//
//	POST /v1/check      check one modulus or certificate
//	POST /v1/ingest     fold new moduli into the live index
//	GET  /v1/stats      index, cache and limiter statistics
//	GET  /v1/exemplars  known factored/clean corpus keys (?n=8)
//	GET  /healthz       liveness: 200 while the process serves at all
//	GET  /readyz        readiness: 200 only with a snapshot loaded and
//	                    the drain gate open (503 otherwise)
func (a *API) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/check", a.withRequestID(a.handleCheck))
	mux.HandleFunc("/v1/ingest", a.withRequestID(a.handleIngest))
	mux.HandleFunc("/v1/stats", a.withRequestID(a.handleStats))
	mux.HandleFunc("/v1/exemplars", a.withRequestID(a.handleExemplars))
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.HandleFunc("/readyz", a.handleReadyz)
	return mux
}

// handleHealthz is the liveness probe: it answers as long as the
// process accepts connections, carrying no judgement about the index.
// Deliberately the cheapest possible handler — no parsing, no locks
// beyond the response write — so an aggressive prober costs nothing.
func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

// handleReadyz is the readiness probe the cluster router keys replica
// selection on: 200 only when a snapshot is published and the drain
// gate is open. A draining replica flips to 503 here while still
// finishing its in-flight checks, so the router stops sending new
// traffic without the replica dropping anything.
func (a *API) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !a.svc.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.Write([]byte("ready\n"))
}

// withRequestID resolves the request's correlation ID — a valid inbound
// X-Request-Id, the trace-id of a W3C traceparent, or a freshly minted
// one — threads it through the context, and echoes it on the response.
// It wraps every route, so every response (200s, sheds, rate limits and
// malformed bodies alike) carries X-Request-Id.
func (a *API) withRequestID(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, _ := telemetry.HTTPRequestID(r)
		w.Header().Set("X-Request-Id", id)
		h(w, r.WithContext(telemetry.ContextWithRequestID(r.Context(), id)))
	}
}

func (a *API) handleCheck(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { a.requestSeconds.ObserveDuration(time.Since(start)) }()
	if r.Method != http.MethodPost {
		a.writeError(w, r, http.StatusMethodNotAllowed, errors.New("keycheck: POST only"))
		return
	}
	if !a.limiter.Allow(clientKey(r)) {
		a.rateLimited.Inc()
		w.Header().Set("Retry-After", "1")
		a.writeError(w, r, http.StatusTooManyRequests, errors.New("keycheck: rate limit exceeded"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		a.writeError(w, r, http.StatusBadRequest, fmt.Errorf("%w: %v", ErrMalformed, err))
		return
	}
	n, e, err := ParseSubmissionWithExponent(body)
	if err != nil {
		a.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	v, err := a.svc.Check(r.Context(), n)
	if err != nil {
		switch {
		case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "1")
			a.writeError(w, r, http.StatusServiceUnavailable, err)
		default:
			a.writeError(w, r, http.StatusInternalServerError, err)
		}
		return
	}
	// The exponent fold-in happens after the service (and its cache):
	// cached verdicts are exponent-free and keyed by modulus alone, and
	// the same modulus under different exponents reuses one cache entry.
	if uv := ApplyExponent(v, e); uv.Status != v.Status {
		a.svc.verdicts[StatusUnsafeExponent].Inc()
		v = uv
	}
	a.writeJSON(w, http.StatusOK, v)
}

// maxIngestModuli bounds one ingest request; bigger deltas belong in
// delta segments fed through SIGHUP.
const maxIngestModuli = 4096

// ParseIngest parses a POST /v1/ingest request body — the JSON envelope
// {"moduli_hex": [...]}: new moduli to fold into the live index without
// a restart — into the submitted hex strings and their validated
// moduli, index for index. It is all-or-nothing: an empty or oversized
// list, or one malformed modulus, rejects the whole request, so a
// partially-applied delta can't exist. Exported so the cluster router
// validates a routed ingest exactly as the replicas it fans out to will.
func ParseIngest(body []byte) (hexes []string, mods []*big.Int, err error) {
	var req struct {
		ModuliHex []string `json:"moduli_hex"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if len(req.ModuliHex) == 0 {
		return nil, nil, fmt.Errorf("%w: moduli_hex is empty", ErrMalformed)
	}
	if len(req.ModuliHex) > maxIngestModuli {
		return nil, nil, fmt.Errorf("%w: %d moduli exceeds the per-request limit of %d", ErrMalformed, len(req.ModuliHex), maxIngestModuli)
	}
	mods = make([]*big.Int, len(req.ModuliHex))
	for i, hex := range req.ModuliHex {
		n, err := ParseModulusHex(hex)
		if err != nil {
			return nil, nil, fmt.Errorf("moduli_hex[%d]: %w", i, err)
		}
		mods[i] = n
	}
	return req.ModuliHex, mods, nil
}

func (a *API) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { a.requestSeconds.ObserveDuration(time.Since(start)) }()
	if r.Method != http.MethodPost {
		a.writeError(w, r, http.StatusMethodNotAllowed, errors.New("keycheck: POST only"))
		return
	}
	if !a.allowIngest {
		a.writeError(w, r, http.StatusForbidden, errors.New("keycheck: ingest disabled on this server"))
		return
	}
	if !a.limiter.Allow(clientKey(r)) {
		a.rateLimited.Inc()
		w.Header().Set("Retry-After", "1")
		a.writeError(w, r, http.StatusTooManyRequests, errors.New("keycheck: rate limit exceeded"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		a.writeError(w, r, http.StatusBadRequest, fmt.Errorf("%w: %v", ErrMalformed, err))
		return
	}
	_, mods, err := ParseIngest(body)
	if err != nil {
		a.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	store := scanstore.New()
	now := time.Now().UTC()
	for _, n := range mods {
		// SourceAPI: a client-submitted key, not a scan observation —
		// per-source statistics must not credit a scan project with it.
		store.AddBareKeyObservation(clientKey(r), now, scanstore.SourceAPI, scanstore.HTTPS, n)
	}
	rep, err := a.svc.Ingest(r.Context(), BuildInput{Store: store})
	if err != nil {
		a.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	a.writeJSON(w, http.StatusOK, rep)
}

// ParseSubmission parses a /v1/check request body — the JSON envelope
// (modulus_hex / cert_pem / cert_der) or a raw PEM — into a validated
// modulus. Exported so the cluster router can resolve a submission's
// home shard before forwarding it.
func ParseSubmission(body []byte) (*big.Int, error) {
	n, _, err := ParseSubmissionWithExponent(body)
	return n, err
}

// ParseSubmissionWithExponent is ParseSubmission plus the submission's
// public exponent when one is available — from the certificate, or from
// the envelope's exponent_hex next to modulus_hex. A nil exponent with
// a nil error means the submission carried none (bare modulus).
func ParseSubmissionWithExponent(body []byte) (n, e *big.Int, err error) {
	trimmed := bytes.TrimSpace(body)
	if bytes.HasPrefix(trimmed, []byte("-----BEGIN")) {
		return parsePEMWithExponent(trimmed)
	}
	var req checkRequest
	if err := json.Unmarshal(trimmed, &req); err != nil {
		return nil, nil, fmt.Errorf("%w: body is neither JSON nor PEM: %v", ErrMalformed, err)
	}
	switch {
	case req.ModulusHex != "":
		n, err = ParseModulusHex(req.ModulusHex)
		if err != nil {
			return nil, nil, err
		}
		if req.ExponentHex != "" {
			if e, err = parseExponentHex(req.ExponentHex); err != nil {
				return nil, nil, err
			}
		}
		return n, e, nil
	case req.CertPEM != "":
		return parsePEMWithExponent([]byte(req.CertPEM))
	case len(req.CertDER) > 0:
		c, err := certs.Parse(req.CertDER)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: cert_der: %v", ErrMalformed, err)
		}
		if n, err = validateModulus(c.N); err != nil {
			return nil, nil, err
		}
		return n, big.NewInt(int64(c.E)), nil
	}
	return nil, nil, fmt.Errorf("%w: set one of modulus_hex, cert_pem, cert_der", ErrMalformed)
}

// parsePEMWithExponent reads a PEM submission: a WEAKKEYS CERTIFICATE
// block, whose exponent it keeps, or a bare WEAKKEYS RSA MODULUS block,
// which carries none.
func parsePEMWithExponent(data []byte) (*big.Int, *big.Int, error) {
	if c, err := certs.ParsePEM(data); err == nil {
		n, err := validateModulus(c.N)
		if err != nil {
			return nil, nil, err
		}
		return n, big.NewInt(int64(c.E)), nil
	}
	mods, err := certs.ParseModulusPEMs(data)
	if err != nil || len(mods) == 0 {
		return nil, nil, fmt.Errorf("%w: no certificate or modulus PEM block", ErrMalformed)
	}
	n, err := validateModulus(mods[0])
	if err != nil {
		return nil, nil, err
	}
	return n, nil, nil
}

// maxExponentHexDigits bounds exponent_hex; anything wider than the
// modulus bound is garbage and classifies as oversized long before
// this, so the cap only guards against megabyte bodies.
const maxExponentHexDigits = MaxModulusBits / 4

// parseExponentHex parses exponent_hex. Unlike the modulus, tiny, even
// and zero values are accepted — classifying broken exponents is the
// point of carrying it.
func parseExponentHex(s string) (*big.Int, error) {
	s = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(s), "0x"))
	if s == "" {
		return nil, fmt.Errorf("%w: empty exponent_hex", ErrMalformed)
	}
	if len(s) > maxExponentHexDigits {
		return nil, fmt.Errorf("%w: exponent_hex longer than %d digits", ErrMalformed, maxExponentHexDigits)
	}
	if len(s)%2 == 1 {
		s = "0" + s
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("%w: exponent_hex: %v", ErrMalformed, err)
	}
	return new(big.Int).SetBytes(raw), nil
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp statsResponse
	resp.Index = a.svc.Index().Snapshot().Stats()
	resp.Cache.Size = a.svc.CacheLen()
	resp.Cache.Hits = a.svc.cacheHits.Value()
	resp.Cache.Misses = a.svc.cacheMisses.Value()
	resp.SnapshotSwaps = a.svc.Index().Swaps()
	resp.TrackedClients = a.limiter.Clients()
	a.writeJSON(w, http.StatusOK, resp)
}

func (a *API) handleExemplars(w http.ResponseWriter, r *http.Request) {
	n := 8
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 || v > 1024 {
			a.writeError(w, r, http.StatusBadRequest, fmt.Errorf("%w: n must be 1..1024", ErrMalformed))
			return
		}
		n = v
	}
	var resp exemplarsResponse
	snap := a.svc.Index().Snapshot()
	resp.Factored, resp.Clean = snap.Exemplars(n)
	resp.Shared = snap.SharedExemplars(n)
	a.writeJSON(w, http.StatusOK, resp)
}

func (a *API) writeJSON(w http.ResponseWriter, code int, v any) {
	a.reg.Counter(fmt.Sprintf(`keycheck_http_requests_total{code="%d"}`, code)).Inc()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError renders a failure with the request's correlation ID in
// both the body and (via withRequestID) the X-Request-Id header, and
// leaves a warn-level event in the flight recorder so the operator can
// look the ID up after the fact.
func (a *API) writeError(w http.ResponseWriter, r *http.Request, code int, err error) {
	id := telemetry.RequestIDFrom(r.Context())
	a.svc.cfg.Events.Warn(r.Context(), "request failed",
		slog.String("path", r.URL.Path),
		slog.Int("status", code),
		slog.String("error", err.Error()))
	a.writeJSON(w, code, errorResponse{Error: err.Error(), RequestID: id})
}

// clientKey identifies the caller for rate limiting: the first
// X-Forwarded-For hop when present (the deployment-behind-a-proxy
// case), else the connection's source IP.
func clientKey(r *http.Request) string {
	if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
		if i := strings.IndexByte(xff, ','); i >= 0 {
			xff = xff[:i]
		}
		return strings.TrimSpace(xff)
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}
