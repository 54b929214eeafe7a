package zscan

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/factorable/weakkeys/internal/retry"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// BridgeOptions configures the continuous-ingest bridge.
type BridgeOptions struct {
	// URL is the ingest endpoint — a keyserverd or keyrouter
	// POST /v1/ingest address.
	URL string
	// Seed keys the retry jitter.
	Seed int64
	// Client is the HTTP client (default: 10s-timeout client).
	Client *http.Client
	// Metrics/Events receive delivery telemetry.
	Metrics *telemetry.Registry
	Events  *telemetry.EventLog
}

// The bridge's delivery schedule.
const (
	// bridgeBatch is moduli per request (the server takes up to 4,096).
	bridgeBatch = 256
	// bridgeFlush flushes a partial batch that has waited this long,
	// bounding scan-to-verdict latency when the harvest trickles.
	bridgeFlush = 500 * time.Millisecond
	// bridgeQueue bounds moduli buffered between harvest and delivery.
	// A full queue blocks Offer: backpressure into the harvest loop
	// instead of unbounded memory.
	bridgeQueue = 8192
	// bridgeAttempts caps delivery attempts per batch, and
	// bridgeRetryBudget retries across the bridge's lifetime.
	bridgeAttempts    = 5
	bridgeRetryBudget = 64
	// bridgeBackoff is the first retry delay, doubling with jitter up to
	// bridgeMaxBackoff. A server's Retry-After is honoured up to
	// bridgeMaxBackoff too, so one answer cannot park delivery (and
	// Offer, and Close) for as long as it asks.
	bridgeBackoff    = 100 * time.Millisecond
	bridgeMaxBackoff = 5 * time.Second
)

func (o BridgeOptions) withDefaults() (BridgeOptions, error) {
	if o.URL == "" {
		return o, fmt.Errorf("zscan: BridgeOptions.URL is required")
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 10 * time.Second}
	}
	return o, nil
}

// BridgeStats is the bridge's delivery ledger.
type BridgeStats struct {
	// Offered is moduli accepted into the queue; Delivered ones
	// acknowledged by the server; Dropped ones lost to a permanently
	// failed batch.
	Offered   uint64 `json:"offered"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	// Batches/FailedBatches/Retries count requests.
	Batches       uint64 `json:"batches"`
	FailedBatches uint64 `json:"failed_batches"`
	Retries       uint64 `json:"retries"`
	// Factored sums the server-reported new_factored + refactored
	// across acknowledged batches — weak keys the scan just exposed.
	Factored uint64 `json:"factored"`
}

// Bridge streams harvested moduli into POST /v1/ingest in batches, on
// the internal/retry machinery (exponential backoff, seeded jitter,
// lifetime retry budget), so a standing scan continuously folds newly
// seen keys into the serving index — /v1/check verdicts flip without a
// server restart. Create with NewBridge, feed with Offer, then Close to
// flush.
type Bridge struct {
	o      BridgeOptions
	queue  chan string
	wg     sync.WaitGroup
	budget *retry.Budget
	jitter *retry.Jitter

	offered   atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	batches   atomic.Uint64
	failed    atomic.Uint64
	retries   atomic.Uint64
	factored  atomic.Uint64

	ins bridgeInstruments
}

type bridgeInstruments struct {
	events    *telemetry.EventLog
	delivered *telemetry.Counter
	dropped   *telemetry.Counter
	batchOK   *telemetry.Counter
	batchFail *telemetry.Counter
	retriesC  *telemetry.Counter
	factoredC *telemetry.Counter
	queueLen  *telemetry.Gauge
}

// NewBridge validates options and starts the delivery goroutine.
func NewBridge(opts BridgeOptions) (*Bridge, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	reg := o.Metrics
	b := &Bridge{
		o:      o,
		queue:  make(chan string, bridgeQueue),
		budget: retry.NewBudget(bridgeRetryBudget),
		jitter: retry.NewJitter(o.Seed),
		ins: bridgeInstruments{
			events:    o.Events,
			delivered: reg.Counter("zscan_ingest_keys_total"),
			dropped:   reg.Counter("zscan_ingest_dropped_total"),
			batchOK:   reg.Counter(`zscan_ingest_batches_total{outcome="ok"}`),
			batchFail: reg.Counter(`zscan_ingest_batches_total{outcome="failed"}`),
			retriesC:  reg.Counter("zscan_ingest_retries_total"),
			factoredC: reg.Counter("zscan_ingest_factored_total"),
			queueLen:  reg.Gauge("zscan_ingest_queue"),
		},
	}
	b.wg.Add(1)
	go b.deliver()
	return b, nil
}

// Offer queues one hex modulus for delivery, blocking when the queue is
// full (backpressure) until space frees or the context ends. Calling
// Offer after Close panics, like any send on a closed channel — the
// engine always finishes harvesting before the bridge is closed.
func (b *Bridge) Offer(ctx context.Context, modulusHex string) error {
	select {
	case b.queue <- modulusHex:
		b.offered.Add(1)
		b.ins.queueLen.Set(float64(len(b.queue)))
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close flushes the queue and stops the delivery goroutine, returning
// after the final batch settles.
func (b *Bridge) Close() {
	close(b.queue)
	b.wg.Wait()
}

// Stats returns the delivery ledger so far.
func (b *Bridge) Stats() BridgeStats {
	return BridgeStats{
		Offered:       b.offered.Load(),
		Delivered:     b.delivered.Load(),
		Dropped:       b.dropped.Load(),
		Batches:       b.batches.Load(),
		FailedBatches: b.failed.Load(),
		Retries:       b.retries.Load(),
		Factored:      b.factored.Load(),
	}
}

// deliver is the bridge's single consumer: batch up queued moduli and
// post each batch, flushing partials on a timer and draining fully at
// Close.
func (b *Bridge) deliver() {
	defer b.wg.Done()
	ticker := time.NewTicker(bridgeFlush)
	defer ticker.Stop()
	batch := make([]string, 0, bridgeBatch)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		b.post(batch)
		batch = batch[:0]
	}
	for {
		select {
		case m, ok := <-b.queue:
			if !ok {
				flush()
				return
			}
			batch = append(batch, m)
			b.ins.queueLen.Set(float64(len(b.queue)))
			if len(batch) >= bridgeBatch {
				flush()
			}
		case <-ticker.C:
			flush()
		}
	}
}

// ingestReply is the slice of the server's ingest report the bridge
// reads back.
type ingestReply struct {
	DeltaModuli int `json:"delta_moduli"`
	Duplicates  int `json:"duplicates"`
	NewFactored int `json:"new_factored"`
	Refactored  int `json:"refactored"`
}

// post delivers one batch with retries: transient failures (transport
// errors, 429 honouring Retry-After up to bridgeMaxBackoff, 5xx) back
// off and retry under the budget; permanent rejections (other 4xx) drop
// the batch — a malformed batch re-posted forever would wedge the whole
// bridge.
func (b *Bridge) post(batch []string) {
	ctx := context.Background()
	body, err := json.Marshal(struct {
		ModuliHex []string `json:"moduli_hex"`
	}{ModuliHex: batch})
	if err != nil {
		b.drop(ctx, batch, fmt.Sprintf("marshal: %v", err))
		return
	}
	backoff := bridgeBackoff
	for attempt := 1; ; attempt++ {
		reply, retryAfter, err := b.postOnce(body)
		if err == nil {
			b.batches.Add(1)
			b.delivered.Add(uint64(len(batch)))
			b.factored.Add(uint64(reply.NewFactored + reply.Refactored))
			b.ins.batchOK.Inc()
			b.ins.delivered.Add(int64(len(batch)))
			b.ins.factoredC.Add(int64(reply.NewFactored + reply.Refactored))
			b.ins.events.Info(ctx, "zscan ingest batch delivered",
				slog.Int("keys", len(batch)),
				slog.Int("novel", reply.DeltaModuli),
				slog.Int("factored", reply.NewFactored+reply.Refactored),
				slog.Int("attempt", attempt))
			return
		}
		if permanent(err) || attempt >= bridgeAttempts || !b.budget.Take() {
			b.drop(ctx, batch, err.Error())
			return
		}
		b.retries.Add(1)
		b.ins.retriesC.Inc()
		sleep := max(b.jitter.Jitter(backoff), min(retryAfter, bridgeMaxBackoff))
		b.ins.events.Debug(ctx, "zscan ingest retry",
			slog.Int("attempt", attempt),
			slog.Duration("backoff", sleep),
			slog.String("err", err.Error()))
		time.Sleep(sleep)
		backoff = retry.DoubleBackoff(backoff, bridgeMaxBackoff)
	}
}

func (b *Bridge) drop(ctx context.Context, batch []string, reason string) {
	b.failed.Add(1)
	b.dropped.Add(uint64(len(batch)))
	b.ins.batchFail.Inc()
	b.ins.dropped.Add(int64(len(batch)))
	b.ins.events.Error(ctx, "zscan ingest batch dropped",
		slog.Int("keys", len(batch)),
		slog.String("reason", reason))
}

// permanentError marks a server rejection retrying cannot fix.
type permanentError struct{ msg string }

func (e *permanentError) Error() string { return e.msg }

func permanent(err error) bool {
	_, ok := err.(*permanentError)
	return ok
}

// postOnce performs one HTTP attempt. 429 and 5xx return ordinary
// (retryable) errors; other non-200 statuses return permanentError.
func (b *Bridge) postOnce(body []byte) (ingestReply, time.Duration, error) {
	var reply ingestReply
	resp, err := b.o.Client.Post(b.o.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return reply, 0, err
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		// A garbled success body is still a delivery; counts just read 0.
		_ = json.Unmarshal(data, &reply)
		return reply, 0, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		var after time.Duration
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
				after = time.Duration(secs) * time.Second
			}
		}
		return reply, after, fmt.Errorf("zscan: ingest rate limited (429)")
	case resp.StatusCode >= 500:
		return reply, 0, fmt.Errorf("zscan: ingest server error (%d)", resp.StatusCode)
	default:
		return reply, 0, &permanentError{msg: fmt.Sprintf(
			"zscan: ingest rejected (%d): %s", resp.StatusCode, truncate(data, 200))}
	}
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}
