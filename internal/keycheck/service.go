package keycheck

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"runtime"
	"sync"
	"time"

	"github.com/factorable/weakkeys/internal/kernel"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// Overload and lifecycle errors; the HTTP layer maps both to 503.
var (
	// ErrOverloaded is returned when every worker is busy and the
	// caller's queue wait expired — the load-shedding path.
	ErrOverloaded = errors.New("keycheck: overloaded, try again")
	// ErrDraining is returned for checks arriving after Drain started.
	ErrDraining = errors.New("keycheck: draining for shutdown")
)

// Config tunes a Service. The zero value serves with GOMAXPROCS
// workers, a 50ms queue wait and a 4096-entry verdict cache.
type Config struct {
	// Workers bounds concurrent GCD-path checks.
	Workers int
	// QueueWait is how long a check waits for a worker before being
	// shed with ErrOverloaded. Zero selects 50ms; negative sheds
	// immediately.
	QueueWait time.Duration
	// CacheSize is the LRU verdict-cache capacity. Zero selects 4096;
	// negative disables caching.
	CacheSize int
	// Metrics receives the serving telemetry (nil disables).
	Metrics *telemetry.Registry
	// Events receives structured serving events — shed decisions,
	// snapshot swaps, ingest reports — correlated with the request ID
	// riding the context (nil disables).
	Events *telemetry.EventLog
	// Requests, when set, tracks per-request state for /debug/requests:
	// in-flight checks and ingests plus the recent and slowest finished
	// ones (nil disables).
	Requests *telemetry.RequestTracker
	// OnIngest, when set, observes every ingest that published a new
	// snapshot — the cluster sync journal's feed. The report carries
	// the hex keys of the novel moduli in NovelKeys. Called after the
	// successor snapshot is live, still under the ingest serialization
	// lock, so observers see publishes in order.
	OnIngest func(IngestReport)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueWait == 0 {
		c.QueueWait = 50 * time.Millisecond
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	return c
}

// Service is the production serving path over an Index: bounded worker
// pool, LRU verdict cache, graceful drain and telemetry. Safe for
// concurrent use.
type Service struct {
	idx   *Index
	cfg   Config
	cache *verdictCache
	sem   chan struct{}

	drainMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup

	// ingestMu serializes ingests: each folds the delta into the
	// snapshot it loaded, so two running concurrently would each publish
	// a successor missing the other's moduli.
	ingestMu sync.Mutex

	checkSeconds  *telemetry.Histogram
	novelSeconds  *telemetry.Histogram
	cacheHits     *telemetry.Counter
	cacheMisses   *telemetry.Counter
	inflightGauge *telemetry.Gauge
	verdicts      map[Status]*telemetry.Counter

	// holdHook, when set by tests, runs once a check holds its worker
	// slot and before the lookup — how a test keeps the pool busy.
	holdHook func()
	// prePutHook, when set by tests, runs between computing a verdict
	// and inserting it into the cache — the window the generation tag
	// protects against a concurrent publish.
	prePutHook func()
}

// NewService publishes snap and returns a serving wrapper around it.
func NewService(snap *Snapshot, cfg Config) *Service {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	s := &Service{
		idx:           NewIndex(snap),
		cfg:           cfg,
		cache:         newVerdictCache(cfg.CacheSize),
		sem:           make(chan struct{}, cfg.Workers),
		checkSeconds:  reg.Histogram("keycheck_check_seconds", telemetry.DurationBuckets),
		novelSeconds:  reg.Histogram("keycheck_novel_check_seconds", telemetry.DurationBuckets),
		cacheHits:     reg.Counter("keycheck_cache_hits_total"),
		cacheMisses:   reg.Counter("keycheck_cache_misses_total"),
		inflightGauge: reg.Gauge("keycheck_inflight_checks"),
		verdicts: map[Status]*telemetry.Counter{
			StatusFactored:       reg.Counter(`keycheck_checks_total{verdict="factored"}`),
			StatusSharedFactor:   reg.Counter(`keycheck_checks_total{verdict="shared_factor"}`),
			StatusFermatWeak:     reg.Counter(`keycheck_checks_total{verdict="fermat_weak"}`),
			StatusSmallFactor:    reg.Counter(`keycheck_checks_total{verdict="small_factor"}`),
			StatusSharedModulus:  reg.Counter(`keycheck_checks_total{verdict="shared_modulus"}`),
			StatusUnsafeExponent: reg.Counter(`keycheck_checks_total{verdict="unsafe_exponent"}`),
			StatusClean:          reg.Counter(`keycheck_checks_total{verdict="clean"}`),
		},
	}
	s.publishGauges(snap)
	return s
}

// Index exposes the underlying index (read path and snapshot swap).
func (s *Service) Index() *Index { return s.idx }

// publish atomically swaps in a successor snapshot — an ingest's merged
// result. Readers are never blocked, and cached verdicts of older
// snapshots stop being served, since a previously clean key may now be
// factored: every cache entry is tagged with its snapshot's generation.
func (s *Service) publish(snap *Snapshot) {
	s.idx.Swap(snap)
	s.cfg.Metrics.Counter("keycheck_snapshot_swaps_total").Inc()
	s.publishGauges(snap)
	if snap != nil {
		s.cfg.Events.Info(context.Background(), "snapshot published",
			slog.Uint64("generation", snap.Generation()),
			slog.Int("moduli", snap.moduli),
			slog.Int("factored", snap.factored))
	}
}

func (s *Service) publishGauges(snap *Snapshot) {
	reg := s.cfg.Metrics
	if reg == nil || snap == nil {
		return
	}
	reg.Gauge("keycheck_index_moduli").Set(float64(snap.moduli))
	reg.Gauge("keycheck_index_factored").Set(float64(snap.factored))
	for i, sh := range snap.shards {
		reg.Gauge(fmt.Sprintf(`keycheck_shard_moduli{shard="%d"}`, i)).Set(float64(sh.members.size()))
		reg.Gauge(fmt.Sprintf(`keycheck_shard_factored{shard="%d"}`, i)).Set(float64(len(sh.factored)))
	}
}

func (s *Service) shed(ctx context.Context, cause string) error {
	s.cfg.Metrics.Counter(`keycheck_shed_total{cause="` + cause + `"}`).Inc()
	s.cfg.Events.Warn(ctx, "check shed", slog.String("cause", cause))
	if cause == "draining" {
		return ErrDraining
	}
	return ErrOverloaded
}

// Check runs one modulus through the serving path: drain gate, cache,
// bounded worker pool, index lookup.
func (s *Service) Check(ctx context.Context, n *big.Int) (Verdict, error) {
	track := s.cfg.Requests.Start("check", telemetry.RequestIDFrom(ctx))
	track.Set("modulus_bits", n.BitLen())
	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
		track.Finish("shed:draining")
		return Verdict{}, s.shed(ctx, "draining")
	}
	s.inflight.Add(1)
	s.drainMu.Unlock()
	defer s.inflight.Done()

	// The whole check — cache probe, index lookup, cache insert — is
	// pinned to one snapshot, and cache traffic is tagged with its
	// generation: the tag is what retires a verdict once publish swaps
	// in a successor, even one a check straddling the swap inserts after
	// it.
	snap := s.idx.Snapshot()
	key := string(n.Bytes())
	if v, ok := s.cache.get(key, snap.Generation()); ok {
		s.cacheHits.Inc()
		v.Cached = true
		s.verdicts[v.Status].Inc()
		track.Set("cache", "hit")
		track.Set("verdict", string(v.Status))
		track.Set("shard", v.Shard)
		track.Finish(string(v.Status))
		s.cfg.Events.Debug(ctx, "check served",
			slog.String("verdict", string(v.Status)),
			slog.Int("shard", v.Shard),
			slog.Bool("cached", true))
		return v, nil
	}
	s.cacheMisses.Inc()
	track.Set("cache", "miss")

	// Bounded pool: a slot now, or within QueueWait, or shed.
	select {
	case s.sem <- struct{}{}:
	default:
		if s.cfg.QueueWait < 0 {
			track.Finish("shed:queue")
			return Verdict{}, s.shed(ctx, "queue")
		}
		timer := time.NewTimer(s.cfg.QueueWait)
		defer timer.Stop()
		select {
		case s.sem <- struct{}{}:
		case <-timer.C:
			track.Finish("shed:queue")
			return Verdict{}, s.shed(ctx, "queue")
		case <-ctx.Done():
			track.Finish("canceled")
			return Verdict{}, ctx.Err()
		}
	}
	s.inflightGauge.Add(1)
	defer func() {
		s.inflightGauge.Add(-1)
		<-s.sem
	}()

	if s.holdHook != nil {
		s.holdHook()
	}

	start := time.Now()
	v := snap.Check(n)
	elapsed := time.Since(start)
	s.checkSeconds.ObserveDuration(elapsed)
	if !v.Known {
		// Novel submissions pay the per-shard sweep and the anomaly
		// probe: milliseconds, invisible among the microsecond member
		// lookups that fill keycheck_check_seconds.
		s.novelSeconds.ObserveDuration(elapsed)
	}
	s.verdicts[v.Status].Inc()
	if s.prePutHook != nil {
		s.prePutHook()
	}
	s.cache.put(key, snap.Generation(), v)
	track.Set("verdict", string(v.Status))
	track.Set("shard", v.Shard)
	track.Finish(string(v.Status))
	s.cfg.Events.Debug(ctx, "check served",
		slog.String("verdict", string(v.Status)),
		slog.Int("shard", v.Shard),
		slog.Bool("cached", false),
		slog.Duration("latency", time.Since(start)))
	return v, nil
}

// Ingest folds a delta corpus into the live snapshot and publishes the
// merged successor (see Snapshot.Ingest). Checks are never blocked: the
// merge happens off to the side and lands via one atomic swap. Ingests
// are serialized against each other; an ingest that finds nothing new
// publishes nothing.
func (s *Service) Ingest(ctx context.Context, in BuildInput) (IngestReport, error) {
	// Ingests ride the same drain gate as checks: one arriving after
	// Drain started is refused, and Drain waits for a running merge to
	// publish (or fail) before declaring the service quiesced — the
	// shutdown race the cluster exercises on every rolling restart.
	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
		return IngestReport{}, ErrDraining
	}
	s.inflight.Add(1)
	s.drainMu.Unlock()
	defer s.inflight.Done()

	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	reg := s.cfg.Metrics
	track := s.cfg.Requests.Start("ingest", telemetry.RequestIDFrom(ctx))
	// Carry the event log down the stack so the kernel engine can emit
	// correlated job events without a signature change.
	ctx = telemetry.ContextWithEvents(ctx, s.cfg.Events)
	start := time.Now()
	snap := s.idx.Snapshot()
	ns, rep, err := snap.Ingest(ctx, in)
	reg.Histogram("keycheck_ingest_seconds", telemetry.DurationBuckets).ObserveDuration(time.Since(start))
	if err != nil {
		reg.Counter(`keycheck_ingest_total{outcome="error"}`).Inc()
		track.Finish("error")
		s.cfg.Events.Error(ctx, "ingest failed", slog.String("error", err.Error()))
		return rep, err
	}
	reg.Counter(`keycheck_ingest_total{outcome="ok"}`).Inc()
	reg.Counter("keycheck_ingest_moduli_total").Add(int64(rep.DeltaModuli))
	reg.Counter("keycheck_ingest_duplicates_total").Add(int64(rep.Duplicates))
	reg.Counter("keycheck_ingest_factored_total").Add(int64(rep.NewFactored))
	reg.Counter("keycheck_ingest_refactored_total").Add(int64(rep.Refactored))
	for _, st := range []struct {
		step string
		took time.Duration
	}{
		{"partition", rep.Steps.Partition}, {"sweep", rep.Steps.Sweep}, {"mates", rep.Steps.Mates},
		{"resolve", rep.Steps.Resolve}, {"merge", rep.Steps.Merge},
	} {
		if st.took > 0 { // zero: the step did not run
			reg.Histogram(`keycheck_ingest_step_seconds{step="`+st.step+`"}`, telemetry.DurationBuckets).ObserveDuration(st.took)
		}
	}
	if reg != nil {
		for _, sr := range rep.Shards {
			reg.Gauge(fmt.Sprintf(`keycheck_shard_nodes_reused{shard="%d"}`, sr.Shard)).Set(float64(sr.NodesReused))
			reg.Gauge(fmt.Sprintf(`keycheck_shard_nodes_total{shard="%d"}`, sr.Shard)).Set(float64(sr.NodesTotal))
		}
		kernel.FromContext(ctx).Publish(reg)
	}
	track.Set("delta_moduli", rep.DeltaModuli)
	track.Set("new_factored", rep.NewFactored)
	track.Set("duplicates", rep.Duplicates)
	s.cfg.Events.Info(ctx, "ingest report",
		slog.Int("delta_moduli", rep.DeltaModuli),
		slog.Int("duplicates", rep.Duplicates),
		slog.Int("new_factored", rep.NewFactored),
		slog.Int("refactored", rep.Refactored),
		slog.Bool("published", ns != snap),
		slog.Duration("latency", time.Since(start)))
	if ns != snap {
		s.publish(ns)
		if s.cfg.OnIngest != nil {
			s.cfg.OnIngest(rep)
		}
		track.Finish("published")
	} else {
		track.Finish("noop")
	}
	return rep, nil
}

// Draining reports whether Drain has started — the readiness half of
// the /readyz probe: a draining replica still answers in-flight checks
// but must stop receiving new traffic.
func (s *Service) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// Ready reports whether the service can take traffic: a snapshot is
// published and the drain gate is open.
func (s *Service) Ready() bool {
	return s.idx.Snapshot() != nil && !s.Draining()
}

// Drain stops admitting new checks and blocks until every in-flight
// check finishes — the graceful half of shutdown. Safe to call more
// than once.
func (s *Service) Drain() {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if !already {
		s.cfg.Events.Info(context.Background(), "drain started")
	}
	s.inflight.Wait()
	if !already {
		s.cfg.Events.Info(context.Background(), "drain complete")
	}
}

// CacheLen returns the current verdict-cache size.
func (s *Service) CacheLen() int { return s.cache.len() }
