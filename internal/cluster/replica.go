package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/factorable/weakkeys/internal/keycheck"
	"github.com/factorable/weakkeys/internal/retry"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// maxReplicaBody bounds a replica response read (mirrors the API's own
// request bound).
const maxReplicaBody = 1 << 20

// Replica is the router's client for one keyserverd replica: an HTTP
// client, the liveness view maintained by the health prober, a failure
// ledger and a circuit breaker for real traffic.
type Replica struct {
	// Name is the replica's placement identity (advertised host:port).
	Name string
	// Breaker trips on consecutive request failures.
	Breaker Breaker

	base   string
	client *http.Client

	// healthy is the prober's latest /readyz view: 1 ready, 0 not.
	// Replicas start healthy so a router can serve before the first
	// probe round completes.
	healthy atomic.Bool
	// probeFails / requestFails are cumulative failure counts for
	// /cluster/status.
	probeFails   atomic.Int64
	requestFails atomic.Int64
	// forwards is the router's cluster_forward_total counter for this
	// replica, resolved once by NewRouter (nil outside a router).
	forwards *telemetry.Counter
}

// NewReplica returns a client for the replica advertised at addr
// (host:port). timeout bounds each request; <=0 selects 10s.
func NewReplica(addr string, timeout time.Duration) *Replica {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	r := &Replica{
		Name: addr,
		base: "http://" + addr,
		client: &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	r.healthy.Store(true)
	return r
}

// Healthy returns the prober's latest readiness view.
func (r *Replica) Healthy() bool { return r.healthy.Load() }

// Usable reports whether the router should prefer this replica for new
// traffic: the prober sees it ready and the breaker would admit a
// request (closed, or open with the cooldown elapsed — the half-open
// probe). Selection still calls Breaker.Allow before sending; Usable is
// the read-only preview.
func (r *Replica) Usable() bool {
	return r.healthy.Load() && r.Breaker.Ready()
}

// ProbeFailures and RequestFailures expose the cumulative ledgers.
func (r *Replica) ProbeFailures() int64   { return r.probeFails.Load() }
func (r *Replica) RequestFailures() int64 { return r.requestFails.Load() }

// Probe performs one /readyz round trip and updates the health view.
func (r *Replica) Probe(ctx context.Context, timeout time.Duration) bool {
	if timeout <= 0 {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/readyz", nil)
	if err != nil {
		r.markProbe(false)
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.markProbe(false)
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	ok := resp.StatusCode == http.StatusOK
	r.markProbe(ok)
	return ok
}

func (r *Replica) markProbe(ok bool) {
	if !ok {
		r.probeFails.Add(1)
	}
	r.healthy.Store(ok)
}

// replicaError is a classified failure from one replica call.
type replicaError struct {
	replica   string
	status    int // HTTP status when a response arrived, else 0
	cause     string
	transient bool
	err       error
}

func (e *replicaError) Error() string {
	if e.status != 0 {
		return fmt.Sprintf("cluster: replica %s: HTTP %d (%s)", e.replica, e.status, e.cause)
	}
	return fmt.Sprintf("cluster: replica %s: %v (%s)", e.replica, e.err, e.cause)
}

// classify buckets a transport error or replica status for the retry
// policy, reusing internal/retry's transport-error taxonomy: refused /
// reset / timeout are the network weather a retry against the peer can
// outrun; a replica's 503 (shedding or draining) and bad-gateway
// statuses are the HTTP shape of the same thing. 4xx is the caller's
// problem and never retried.
func classify(replica string, status int, err error) *replicaError {
	if err != nil {
		cause := retry.Cause(err)
		return &replicaError{replica: replica, cause: cause, transient: retry.Transient(err), err: err}
	}
	switch status {
	case http.StatusServiceUnavailable, http.StatusTooManyRequests,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return &replicaError{replica: replica, status: status, cause: "unavailable", transient: true}
	}
	return &replicaError{replica: replica, status: status, cause: "permanent", transient: false}
}

// checkResult is one replica's answer to a forwarded check.
type checkResult struct {
	verdict keycheck.Verdict
	replica string
}

// Check forwards one canonical modulus_hex check to the replica. The
// request ID rides the X-Request-Id header so the replica's flight
// recorder correlates with the router's. A non-200 response or a
// transport failure (including a truncated body — the replica dying
// mid-response) comes back as a classified *replicaError.
func (r *Replica) Check(ctx context.Context, modulusHex string) (*checkResult, *replicaError) {
	body, _ := json.Marshal(map[string]string{"modulus_hex": modulusHex})
	status, raw, rerr := r.post(ctx, "/v1/check", body)
	if rerr != nil {
		return nil, rerr
	}
	if status != http.StatusOK {
		return nil, classify(r.Name, status, nil)
	}
	var v keycheck.Verdict
	if err := json.Unmarshal(raw, &v); err != nil {
		// A 200 with an undecodable body is a replica dying mid-write;
		// retrying the peer is the right move.
		return nil, &replicaError{replica: r.Name, cause: retry.CauseReset, transient: true, err: err}
	}
	return &checkResult{verdict: v, replica: r.Name}, nil
}

// Ingest forwards a moduli_hex batch to the replica.
func (r *Replica) Ingest(ctx context.Context, moduliHex []string) (keycheck.IngestReport, *replicaError) {
	body, _ := json.Marshal(map[string][]string{"moduli_hex": moduliHex})
	status, raw, rerr := r.post(ctx, "/v1/ingest", body)
	if rerr != nil {
		return keycheck.IngestReport{}, rerr
	}
	if status != http.StatusOK {
		return keycheck.IngestReport{}, classify(r.Name, status, nil)
	}
	var rep keycheck.IngestReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return keycheck.IngestReport{}, &replicaError{replica: r.Name, cause: retry.CauseReset, transient: true, err: err}
	}
	return rep, nil
}

// Get proxies a GET (exemplars, stats) and returns status + body.
func (r *Replica) Get(ctx context.Context, path string) (int, []byte, *replicaError) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return 0, nil, classify(r.Name, 0, err)
	}
	setRequestID(req, ctx)
	return r.do(req)
}

func (r *Replica) post(ctx context.Context, path string, body []byte) (int, []byte, *replicaError) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, classify(r.Name, 0, err)
	}
	req.Header.Set("Content-Type", "application/json")
	setRequestID(req, ctx)
	return r.do(req)
}

func (r *Replica) do(req *http.Request) (int, []byte, *replicaError) {
	resp, err := r.client.Do(req)
	if err != nil {
		r.requestFails.Add(1)
		return 0, nil, classify(r.Name, 0, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxReplicaBody))
	if err != nil {
		// The body read failing after a good header is the replica (or
		// its kernel) cutting the connection mid-response.
		r.requestFails.Add(1)
		return 0, nil, classify(r.Name, 0, err)
	}
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		r.requestFails.Add(1)
	}
	return resp.StatusCode, raw, nil
}

// setRequestID carries the router request's correlation ID to the
// replica hop, so one ID joins the router's and the replica's flight
// recorders.
func setRequestID(req *http.Request, ctx context.Context) {
	if id := telemetry.RequestIDFrom(ctx); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
}
