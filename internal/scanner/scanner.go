// Package scanner implements the certificate-harvesting client side of the
// study: a zmap-style concurrent TCP scanner that connects to device
// management interfaces, performs the certificate-fetch handshake, and
// records host observations. The paper's sources used Nmap+Python (EFF,
// P&Q) and ZMap+custom fetchers (Ecosystem, Rapid7, Censys); the worker-
// pool architecture here mirrors the latter, including the retry/loss
// handling internet scans live on: transient failures (refused, reset,
// timeout) are retried with exponential backoff and jitter under a
// global retry budget, while permanent failures (protocol violations,
// unparseable certificates) are classified and never retried.
package scanner

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"sync"
	"time"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/devices"
	"github.com/factorable/weakkeys/internal/retry"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// Options configures a scan.
type Options struct {
	// Workers is the number of concurrent connections (default 16).
	Workers int
	// Timeout bounds each connection attempt and handshake (default 5s).
	Timeout time.Duration
	// ProbeHeartbeat, when set, additionally sends a heartbeat probe
	// after fetching the certificate — the Heartbleed-scan behaviour
	// that crashed some devices in the wild.
	ProbeHeartbeat bool
	// RatePerSecond caps connection attempts per second (0 = unlimited).
	// ZMap-era scanners pace probes to be polite to networks; the
	// Ecosystem scans took 18 hours for the IPv4 space at their chosen
	// rate. Negative values are rejected — a sign-flipped rate silently
	// becoming "unlimited" is exactly the kind of config slip that gets
	// scanners abuse reports.
	RatePerSecond float64
	// Progress, when set, is called after each target completes with the
	// number of finished targets and the total. Calls are serialized but
	// may come from any worker goroutine.
	Progress func(done, total int)
	// MaxAttempts caps connection attempts per target. Transient
	// failures (connection refused, reset / mid-handshake hangup,
	// timeout) are retried with exponential backoff and jitter up to
	// this many total attempts; permanent failures (protocol violations,
	// certificate parse errors) are never retried. Default 3; 1 disables
	// retries.
	MaxAttempts int
	// RetryBackoff is the delay before the first retry; it doubles per
	// attempt, spread over [0.5x, 1.5x) by seeded jitter. Default 25ms.
	RetryBackoff time.Duration
	// RetryBudget caps total retries across the whole scan — the
	// abuse-throttling guard: a dying network must not multiply scan
	// traffic. 0 selects the default of 2 retries per target; negative
	// means unlimited.
	RetryBudget int
	// RetrySeed seeds the backoff jitter so chaos runs replay exactly
	// (default 1).
	RetrySeed int64
	// Metrics, when set, receives live scan telemetry: the
	// scanner_dial_seconds and scanner_handshake_seconds latency
	// histograms, scanner_targets_total / scanner_certs_total /
	// scanner_attempts_total counters, per-cause scanner_errors_total
	// {cause="dial"|"handshake"|"heartbeat"} counters, and the retry
	// ledger (scanner_retries_total{cause=...},
	// scanner_retry_budget_exhausted_total) — the continuous rate/error
	// telemetry a ZMap-style scan loop is operated by.
	Metrics *telemetry.Registry
	// Events, when set, records structured retry/loss events in the
	// flight recorder: each retry at debug (target, cause, attempt,
	// backoff) and retry-budget exhaustion at warn — the per-target
	// narrative behind the aggregate retry counters.
	Events *telemetry.EventLog
}

// instruments is the set of metric handles a scan resolves once up
// front, so workers touch only atomics on the per-target hot path. All
// handles are the nil no-op kind when Options.Metrics is unset.
type instruments struct {
	reg       *telemetry.Registry // kept for the cold retry path only
	events    *telemetry.EventLog
	dial      *telemetry.Histogram
	handshake *telemetry.Histogram
	targets   *telemetry.Counter
	attempts  *telemetry.Counter
	certs     *telemetry.Counter
	dialErrs  *telemetry.Counter
	hsErrs    *telemetry.Counter
	hbErrs    *telemetry.Counter
	budgetOut *telemetry.Counter
	inFlight  *telemetry.Gauge
}

func (o Options) instruments() instruments {
	reg := o.Metrics
	return instruments{
		reg:       reg,
		events:    o.Events,
		dial:      reg.Histogram("scanner_dial_seconds", telemetry.DurationBuckets),
		handshake: reg.Histogram("scanner_handshake_seconds", telemetry.DurationBuckets),
		targets:   reg.Counter("scanner_targets_total"),
		attempts:  reg.Counter("scanner_attempts_total"),
		certs:     reg.Counter("scanner_certs_total"),
		dialErrs:  reg.Counter(`scanner_errors_total{cause="dial"}`),
		hsErrs:    reg.Counter(`scanner_errors_total{cause="handshake"}`),
		hbErrs:    reg.Counter(`scanner_errors_total{cause="heartbeat"}`),
		budgetOut: reg.Counter("scanner_retry_budget_exhausted_total"),
		inFlight:  reg.Gauge("scanner_inflight_connections"),
	}
}

// retried records one retry, labelled by the cause of the failed
// attempt. Retries are rare, so the registry lookup off the hot path is
// fine (and a nil registry hands back a no-op counter).
func (ins instruments) retried(cause string) {
	ins.reg.Counter(`scanner_retries_total{cause="` + cause + `"}`).Inc()
}

// maxRate caps RatePerSecond so the pacing interval stays >= 1ns:
// time.NewTicker(0) panics, and any rate above 1e9/s is already
// "unpaced" at wall-clock resolution.
const maxRate = 1e9

func (o Options) withDefaults() (Options, error) {
	if o.RatePerSecond < 0 || o.RatePerSecond != o.RatePerSecond {
		return o, fmt.Errorf("scanner: RatePerSecond must be >= 0, got %g", o.RatePerSecond)
	}
	if o.RatePerSecond > maxRate {
		o.RatePerSecond = maxRate
	}
	if o.Workers <= 0 {
		o.Workers = 16
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 25 * time.Millisecond
	}
	if o.RetrySeed == 0 {
		o.RetrySeed = 1
	}
	return o, nil
}

// Result is the outcome for one target address.
type Result struct {
	Addr string
	Cert *certs.Certificate
	// Suites is the cipher-suite families the server advertised.
	Suites []string
	// HeartbeatOK reports whether the heartbeat probe (if requested)
	// got a correct response.
	HeartbeatOK bool
	// Attempts is the number of connection attempts made for this
	// target (1 when the first attempt settled it).
	Attempts int
	// Transient reports whether the final error was classified
	// transient — i.e. the target is worth retrying in a later pass.
	Transient bool
	Err       error
}

// Stream fetches certificates from every target concurrently and hands
// each Result to emit as it completes. Calls to emit are serialized
// (never concurrent) but arrive in completion order, not target order;
// index is the target's position in targets. Unlike Scan, Stream's
// working memory is O(Workers) — the shape a standing scan over a large
// target list needs. The context cancels outstanding dials; targets
// never dispatched are emitted with the context's error. An error is
// returned only for invalid Options.
func Stream(ctx context.Context, targets []string, opts Options, emit func(index int, r Result)) error {
	o, err := opts.withDefaults()
	if err != nil {
		return err
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	var emitMu sync.Mutex
	done := 0
	deliver := func(i int, r Result) {
		emitMu.Lock()
		if emit != nil {
			emit(i, r)
		}
		done++
		if o.Progress != nil {
			o.Progress(done, len(targets))
		}
		emitMu.Unlock()
	}
	ins := o.instruments()
	budgetSize := int64(o.RetryBudget)
	switch {
	case budgetSize == 0:
		budgetSize = 2 * int64(len(targets))
	case budgetSize < 0:
		budgetSize = math.MaxInt64
	}
	budget := retry.NewBudget(budgetSize)
	jitter := retry.NewJitter(o.RetrySeed)
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				deliver(i, scanOne(ctx, targets[i], o, ins, budget, jitter))
			}
		}()
	}
	var pace <-chan time.Time
	if o.RatePerSecond > 0 {
		ticker := time.NewTicker(time.Duration(float64(time.Second) / o.RatePerSecond))
		defer ticker.Stop()
		pace = ticker.C
	}
dispatch:
	for i := range targets {
		if pace != nil {
			select {
			case <-pace:
			case <-ctx.Done():
				for j := i; j < len(targets); j++ {
					deliver(j, Result{Addr: targets[j], Err: ctx.Err()})
				}
				break dispatch
			}
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			for j := i; j < len(targets); j++ {
				deliver(j, Result{Addr: targets[j], Err: ctx.Err()})
			}
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return nil
}

// Scan fetches certificates from every target concurrently. Results are
// returned in target order. The context cancels outstanding dials. An
// error is returned only for invalid Options; per-target failures are
// reported in the corresponding Result. It is a slice-accumulating
// wrapper over Stream — callers that don't need the whole result set in
// memory should use Stream directly.
func Scan(ctx context.Context, targets []string, opts Options) ([]Result, error) {
	results := make([]Result, len(targets))
	err := Stream(ctx, targets, opts, func(i int, r Result) { results[i] = r })
	if err != nil {
		return nil, err
	}
	return results, nil
}

// scanOne drives one target to a final Result: an attempt, then — for
// transient failures only — exponential backoff with jitter and another
// attempt, bounded per target by MaxAttempts and globally by the retry
// budget.
func scanOne(ctx context.Context, addr string, o Options, ins instruments, budget *retry.Budget, jitter *retry.Jitter) Result {
	ins.targets.Inc()
	backoff := o.RetryBackoff
	for attempt := 1; ; attempt++ {
		res := scanAttempt(ctx, addr, o, ins)
		res.Attempts = attempt
		ins.attempts.Inc()
		if res.Err == nil {
			return res
		}
		res.Transient = retry.Transient(res.Err)
		if !res.Transient || attempt >= o.MaxAttempts || ctx.Err() != nil {
			return res
		}
		if !budget.Take() {
			ins.budgetOut.Inc()
			ins.events.Warn(ctx, "scan retry budget exhausted",
				slog.String("addr", addr),
				slog.String("cause", retry.Cause(res.Err)),
				slog.Int("attempt", attempt))
			return res
		}
		ins.retried(retry.Cause(res.Err))
		sleep := jitter.Jitter(backoff)
		ins.events.Debug(ctx, "scan retry",
			slog.String("addr", addr),
			slog.String("cause", retry.Cause(res.Err)),
			slog.Int("attempt", attempt),
			slog.Duration("backoff", sleep))
		if !sleepCtx(ctx, sleep) {
			return res
		}
		backoff = retry.DoubleBackoff(backoff, maxBackoff(o))
	}
}

// maxBackoff bounds one retry sleep: never longer than the per-attempt
// timeout (a retry pause exceeding the probe itself only starves the
// worker), with a 1s floor so aggressive sub-second timeouts still get
// a meaningful pause.
func maxBackoff(o Options) time.Duration {
	if o.Timeout > time.Second {
		return o.Timeout
	}
	return time.Second
}

// sleepCtx waits d or until the context is done; it reports whether the
// full wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// scanAttempt performs a single dial + handshake (+ optional heartbeat
// probe) against one target.
func scanAttempt(ctx context.Context, addr string, o Options, ins instruments) Result {
	ins.inFlight.Add(1)
	defer ins.inFlight.Add(-1)
	res := Result{Addr: addr}
	d := net.Dialer{Timeout: o.Timeout}
	dial0 := time.Now()
	conn, err := d.DialContext(ctx, "tcp", addr)
	ins.dial.ObserveDuration(time.Since(dial0))
	if err != nil {
		ins.dialErrs.Inc()
		res.Err = err
		return res
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(o.Timeout)); err != nil {
		res.Err = err
		return res
	}
	hs0 := time.Now()
	cert, suites, err := devices.FetchCertSuites(conn)
	ins.handshake.ObserveDuration(time.Since(hs0))
	if err != nil {
		ins.hsErrs.Inc()
		res.Err = err
		return res
	}
	ins.certs.Inc()
	res.Cert = cert
	res.Suites = suites
	if o.ProbeHeartbeat {
		// Refresh the deadline: a slow handshake must not leave the
		// heartbeat probe with an already-stale deadline that fails
		// every probe spuriously.
		if err := conn.SetDeadline(time.Now().Add(o.Timeout)); err != nil {
			res.HeartbeatOK = false
			ins.hbErrs.Inc()
			return res
		}
		res.HeartbeatOK = devices.ProbeHeartbeat(conn, []byte("scan-probe")) == nil
		if !res.HeartbeatOK {
			ins.hbErrs.Inc()
		}
	}
	return res
}

// HarvestSummary is Harvest's resilience accounting.
type HarvestSummary struct {
	// Stored is the number of observations persisted.
	Stored int
	// Retryable lists targets whose final failure was transient — the
	// resume list: feed it into a later Harvest pass to finish the scan
	// month instead of re-scanning everything.
	Retryable []string
	// StoreErrors counts per-observation store failures that were
	// skipped over (details are joined into the returned error).
	StoreErrors int
}

// HarvestStream scans targets and stores each successful observation
// as it completes, under the given scan date and source — the streaming
// harvest: memory stays O(Workers) regardless of target count. tee,
// when non-nil, additionally receives every Result (serialized,
// completion order). Individual store failures do not abort the
// harvest: the remaining observations still land, the failures are
// counted in the summary and joined into the returned error — one bad
// record must not discard the rest of a month's harvest.
func HarvestStream(ctx context.Context, store *scanstore.Store, date time.Time, src scanstore.Source, targets []string, opts Options, tee func(index int, r Result)) (HarvestSummary, error) {
	var sum HarvestSummary
	var storeErrs []error
	err := Stream(ctx, targets, opts, func(i int, r Result) {
		if tee != nil {
			tee(i, r)
		}
		if err := storeOne(store, date, src, r, &sum); err != nil {
			storeErrs = append(storeErrs, err)
		}
	})
	if err != nil {
		return HarvestSummary{}, err
	}
	return sum, errors.Join(storeErrs...)
}

// Harvest scans targets and stores every successful observation under
// the given scan date and source. It returns the per-target results and
// a summary; it is the slice-accumulating wrapper over HarvestStream.
func Harvest(ctx context.Context, store *scanstore.Store, date time.Time, src scanstore.Source, targets []string, opts Options) ([]Result, HarvestSummary, error) {
	if _, err := opts.withDefaults(); err != nil {
		return nil, HarvestSummary{}, err
	}
	results := make([]Result, len(targets))
	sum, err := HarvestStream(ctx, store, date, src, targets, opts,
		func(i int, r Result) { results[i] = r })
	return results, sum, err
}

// storeOne persists one successful result into the store and updates
// the summary; the returned error (nil for transient/empty results) is
// the per-observation store failure, which callers aggregate.
func storeOne(store *scanstore.Store, date time.Time, src scanstore.Source, r Result, sum *HarvestSummary) error {
	if r.Err != nil {
		if r.Transient {
			sum.Retryable = append(sum.Retryable, r.Addr)
		}
		return nil
	}
	if r.Cert == nil {
		return nil
	}
	host, _, err := net.SplitHostPort(r.Addr)
	if err != nil {
		host = r.Addr
	}
	err = store.Add(scanstore.Observation{
		IP: host, Date: date, Source: src, Protocol: scanstore.HTTPS,
		Cert: r.Cert, RSAOnly: devices.RSAOnly(r.Suites),
	})
	if err != nil {
		sum.StoreErrors++
		return fmt.Errorf("scanner: store %s: %w", r.Addr, err)
	}
	sum.Stored++
	return nil
}
