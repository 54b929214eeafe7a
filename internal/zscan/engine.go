package zscan

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/devices"
	"github.com/factorable/weakkeys/internal/retry"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// Options configures an Engine run.
type Options struct {
	// Space is the address-space size to sweep.
	Space uint64
	// Shard/Shards partition the cycle: this process walks shard Shard
	// of Shards coordination-free slices (defaults 0 of 1).
	Shard, Shards int
	// Seed keys the permutation (generator + start element), so a
	// given (Space, Seed, Shards) triple fully determines every
	// shard's visit sequence across processes.
	Seed int64
	// Cycles is how many full sweeps to run (default 1). Probes lost
	// to transient faults are not retried in place; the next cycle
	// re-covers them — the ZMap loss model.
	Cycles int
	// Rate caps probes/sec via a token bucket (0 = unpaced).
	Rate float64
	// Burst is the bucket capacity (default max(Rate/100, 1)).
	Burst int
	// Window bounds probes in flight between sender and harvester
	// (default 1024).
	Window int
	// Workers is the number of probe goroutines (default 8).
	Workers int
	// Prober answers the probes — a SimFleet or a TCPProber.
	Prober Prober
	// Store receives one observation per successful probe.
	Store *scanstore.Store
	// Date is the scan date stamped on cycle 0's observations; cycle k
	// is stamped Date+k days, so per-cycle deltas stay separable.
	// Defaults to 2016-04-01, the paper's final scan month.
	Date time.Time
	// Source attributes the observations (default SourceCensys).
	Source scanstore.Source
	// CheckpointDir, when set, receives numbered scanstore delta
	// segments as the harvest advances.
	CheckpointDir string
	// CheckpointEvery is the number of stored observations per delta
	// checkpoint (default 256).
	CheckpointEvery int
	// Ingest, when set, receives every novel modulus the harvest sees;
	// the bridge batches them into POST /v1/ingest.
	Ingest *Bridge
	// Metrics/Events receive zscan_* telemetry and structured events.
	Metrics *telemetry.Registry
	Events  *telemetry.EventLog
}

func (o Options) withDefaults() (Options, error) {
	if o.Prober == nil {
		return o, fmt.Errorf("zscan: Options.Prober is required")
	}
	if o.Store == nil {
		return o, fmt.Errorf("zscan: Options.Store is required")
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Shard < 0 || o.Shard >= o.Shards {
		return o, fmt.Errorf("zscan: shard %d outside [0,%d)", o.Shard, o.Shards)
	}
	if o.Cycles <= 0 {
		o.Cycles = 1
	}
	if o.Rate < 0 || o.Rate != o.Rate {
		return o, fmt.Errorf("zscan: Rate must be >= 0, got %g", o.Rate)
	}
	if o.Window <= 0 {
		o.Window = 1024
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Date.IsZero() {
		o.Date = time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)
	}
	if o.Source == "" {
		o.Source = scanstore.SourceCensys
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 256
	}
	return o, nil
}

// Report is the accounting for one Run.
type Report struct {
	Cycles int `json:"cycles"`
	// Probes is how many addresses were probed (all cycles).
	Probes uint64 `json:"probes"`
	// Hits is probes that returned a certificate; Misses is probes
	// into empty address space.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Errors buckets failed probes against live devices by
	// retry.Cause.
	Errors map[string]uint64 `json:"errors,omitempty"`
	// Stored counts observations persisted; StoreErrors counts ones
	// the store rejected (skipped, not fatal).
	Stored      int `json:"stored"`
	StoreErrors int `json:"store_errors,omitempty"`
	// NovelModuli / DuplicateModuli split the hits by whether the
	// modulus was first seen this run.
	NovelModuli     int `json:"novel_moduli"`
	DuplicateModuli int `json:"duplicate_moduli"`
	// Checkpoints counts delta segments written to CheckpointDir.
	Checkpoints int `json:"checkpoints"`
	// Elapsed and ProbesPerSec describe the whole run.
	Elapsed      time.Duration `json:"elapsed_ns"`
	ProbesPerSec float64       `json:"probes_per_sec"`
}

// instruments is the engine's pre-resolved metric handle set (all
// nil-safe no-ops when Options.Metrics is unset): resolve once, touch
// only atomics per probe.
type instruments struct {
	events      *telemetry.EventLog
	probes      *telemetry.Counter
	hits        *telemetry.Counter
	misses      *telemetry.Counter
	errs        map[string]*telemetry.Counter
	inflight    *telemetry.Gauge
	harvestLag  *telemetry.Histogram
	novel       *telemetry.Counter
	dup         *telemetry.Counter
	checkpoints *telemetry.Counter
	cycles      *telemetry.Counter
	rate        *telemetry.Gauge
}

func (o Options) instruments() instruments {
	reg := o.Metrics
	errs := make(map[string]*telemetry.Counter)
	for _, cause := range []string{retry.CauseRefused, retry.CauseReset,
		retry.CauseTimeout, retry.CauseCanceled, retry.CausePermanent} {
		errs[cause] = reg.Counter(`zscan_probe_errors_total{cause="` + cause + `"}`)
	}
	return instruments{
		events:      o.Events,
		probes:      reg.Counter("zscan_probes_total"),
		hits:        reg.Counter("zscan_hits_total"),
		misses:      reg.Counter("zscan_misses_total"),
		errs:        errs,
		inflight:    reg.Gauge("zscan_inflight"),
		harvestLag:  reg.Histogram("zscan_harvest_lag_seconds", telemetry.DurationBuckets),
		novel:       reg.Counter("zscan_novel_moduli_total"),
		dup:         reg.Counter("zscan_duplicate_moduli_total"),
		checkpoints: reg.Counter("zscan_checkpoints_total"),
		cycles:      reg.Counter("zscan_cycles_total"),
		rate:        reg.Gauge("zscan_probes_per_sec"),
	}
}

// Engine is the decoupled send/harvest scan loop: a paced sender walks
// the permutation and dispatches stateless probes into a bounded
// in-flight window; probe workers answer them; a single harvester
// validates certificates, stores observations, dedups moduli, writes
// delta checkpoints and feeds the ingest bridge. Sender and harvester
// share nothing but the window — the ZMap architecture, where the send
// loop never blocks on response processing.
type Engine struct {
	o     Options
	cycle *Cycle
	ins   instruments

	// Harvester-owned state (single goroutine, no locking).
	seen    map[string]bool
	lastCP  scanstore.Checkpoint
	sinceCP int
	rep     Report
	// cpNext is the filename index of the next delta segment. It starts
	// past the highest zscan-*.delta already in CheckpointDir, so a shard
	// restarted into a non-empty directory extends the chain instead of
	// silently overwriting it (Report.Checkpoints counts this run only).
	cpNext int
}

// New validates the options and builds the permutation.
func New(opts Options) (*Engine, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	cyc, err := NewCycle(o.Space, o.Seed)
	if err != nil {
		return nil, err
	}
	cpNext := 0
	if o.CheckpointDir != "" {
		if err := os.MkdirAll(o.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("zscan: checkpoint dir: %w", err)
		}
		if cpNext, err = nextCheckpointIndex(o.CheckpointDir); err != nil {
			return nil, err
		}
	}
	return &Engine{
		o:      o,
		cycle:  cyc,
		ins:    o.instruments(),
		seen:   make(map[string]bool),
		rep:    Report{Errors: make(map[string]uint64)},
		cpNext: cpNext,
	}, nil
}

// LoadCheckpoints replays every zscan-*.delta segment in dir into store,
// in index order — the restart rehydration step. Delta segments are
// positional (each records the store position it was saved against), so
// a shard restarted into a non-empty checkpoint dir must fold the
// existing chain back into its store before scanning; the engine then
// appends new segments that chain onto the old ones. Returns the number
// of segments replayed; a missing or empty dir replays zero.
func LoadCheckpoints(dir string, store *scanstore.Store) (int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "zscan-*.delta"))
	if err != nil {
		return 0, fmt.Errorf("zscan: load checkpoints: %w", err)
	}
	sort.Strings(matches)
	for i, path := range matches {
		f, err := os.Open(path)
		if err != nil {
			return i, fmt.Errorf("zscan: load checkpoints: %w", err)
		}
		err = store.LoadSince(f)
		f.Close()
		if err != nil {
			return i, fmt.Errorf("zscan: load checkpoints: replay %s: %w", filepath.Base(path), err)
		}
	}
	return len(matches), nil
}

// nextCheckpointIndex scans dir for existing zscan-*.delta segments and
// returns the index after the highest one, so a restarted shard appends
// to the delta chain rather than clobbering it and corrupting LoadSince
// replay.
func nextCheckpointIndex(dir string) (int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "zscan-*.delta"))
	if err != nil {
		return 0, fmt.Errorf("zscan: checkpoint dir: %w", err)
	}
	next := 0
	for _, m := range matches {
		base := filepath.Base(m)
		var idx int
		if _, err := fmt.Sscanf(base, "zscan-%d.delta", &idx); err != nil {
			return 0, fmt.Errorf("zscan: checkpoint dir holds unrecognized delta %q", base)
		}
		if idx+1 > next {
			next = idx + 1
		}
	}
	return next, nil
}

// Cycle exposes the engine's permutation (for audits and tests).
func (e *Engine) Cycle() *Cycle { return e.cycle }

// harvestItem carries a finished probe to the harvester, timestamped so
// harvest lag (time a response waits before validation) is measurable.
type harvestItem struct {
	res  ProbeResult
	done time.Time
}

// Run executes the configured number of full-cycle sweeps. It returns
// the partial report alongside the context's error when canceled
// mid-sweep; checkpointing and store errors surface in the report and
// events rather than aborting the scan.
func (e *Engine) Run(ctx context.Context) (Report, error) {
	start := time.Now()
	e.lastCP = e.o.Store.Checkpoint()
	var runErr error
	for c := 0; c < e.o.Cycles; c++ {
		date := e.o.Date.AddDate(0, 0, c)
		if err := e.runCycle(ctx, c, date); err != nil {
			runErr = err
			break
		}
		e.rep.Cycles++
		e.ins.cycles.Inc()
	}
	if err := e.checkpoint(ctx, true); err != nil && runErr == nil {
		runErr = err
	}
	e.rep.Elapsed = time.Since(start)
	if s := e.rep.Elapsed.Seconds(); s > 0 {
		e.rep.ProbesPerSec = float64(e.rep.Probes) / s
	}
	e.ins.rate.Set(e.rep.ProbesPerSec)
	if len(e.rep.Errors) == 0 {
		e.rep.Errors = nil
	}
	return e.rep, runErr
}

// runCycle sweeps this process's shard of one full cycle: sender →
// window → workers → harvester, with a barrier at the end (jobs close,
// workers drain, harvester finishes) so the next cycle's observations
// carry the next scan date exactly.
func (e *Engine) runCycle(ctx context.Context, cycleNo int, date time.Time) error {
	walk, err := e.cycle.Shard(e.o.Shard, e.o.Shards)
	if err != nil {
		return err
	}
	e.ins.events.Info(ctx, "zscan cycle start",
		slog.Int("cycle", cycleNo),
		slog.Int("shard", e.o.Shard),
		slog.Int("shards", e.o.Shards),
		slog.Uint64("targets", walk.Remaining()))
	cycleStart := time.Now()
	probesBefore := e.rep.Probes

	window := make(chan struct{}, e.o.Window)
	jobs := make(chan uint64)
	results := make(chan harvestItem, e.o.Window)
	var workers sync.WaitGroup
	for w := 0; w < e.o.Workers; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for idx := range jobs {
				res := e.o.Prober.Probe(ctx, idx)
				results <- harvestItem{res: res, done: time.Now()}
			}
		}()
	}
	harvestDone := make(chan struct{})
	go func() {
		defer close(harvestDone)
		for item := range results {
			<-window
			e.ins.inflight.Add(-1)
			e.harvest(ctx, date, item)
		}
	}()

	pace := newPacer(e.o.Rate, e.o.Burst)
send:
	for {
		idx, ok := walk.Next()
		if !ok {
			break
		}
		if !pace.wait(ctx) {
			break
		}
		select {
		case window <- struct{}{}:
		case <-ctx.Done():
			break send
		}
		e.ins.inflight.Add(1)
		select {
		case jobs <- idx:
			e.rep.Probes++
			e.ins.probes.Inc()
		case <-ctx.Done():
			<-window
			e.ins.inflight.Add(-1)
			break send
		}
	}
	close(jobs)
	workers.Wait()
	close(results)
	<-harvestDone

	elapsed := time.Since(cycleStart)
	probes := e.rep.Probes - probesBefore
	if s := elapsed.Seconds(); s > 0 {
		e.ins.rate.Set(float64(probes) / s)
	}
	e.ins.events.Info(ctx, "zscan cycle done",
		slog.Int("cycle", cycleNo),
		slog.Uint64("probes", probes),
		slog.Uint64("hits", e.rep.Hits),
		slog.Int("stored", e.rep.Stored),
		slog.Duration("elapsed", elapsed))
	return ctx.Err()
}

// harvest validates one finished probe: classify failures, parse the
// certificate if the prober returned raw DER, store the observation,
// dedup the modulus, feed the ingest bridge, and checkpoint when due.
// It runs on the single harvester goroutine.
func (e *Engine) harvest(ctx context.Context, date time.Time, item harvestItem) {
	res := item.res
	if res.Err != nil {
		if res.Err == ErrNoDevice {
			e.rep.Misses++
			e.ins.misses.Inc()
			return
		}
		e.ins.harvestLag.ObserveDuration(time.Since(item.done))
		cause := retry.Cause(res.Err)
		e.rep.Errors[cause]++
		if c := e.ins.errs[cause]; c != nil {
			c.Inc()
		}
		e.ins.events.Debug(ctx, "zscan probe failed",
			slog.Uint64("index", res.Index),
			slog.String("cause", cause))
		return
	}
	e.ins.harvestLag.ObserveDuration(time.Since(item.done))
	cert := res.Cert
	if cert == nil {
		var err error
		cert, err = certs.Parse(res.DER)
		if err != nil {
			e.rep.Errors[retry.CausePermanent]++
			e.ins.errs[retry.CausePermanent].Inc()
			e.ins.events.Warn(ctx, "zscan certificate parse failed",
				slog.Uint64("index", res.Index),
				slog.String("err", err.Error()))
			return
		}
	}
	e.rep.Hits++
	e.ins.hits.Inc()
	err := e.o.Store.Add(scanstore.Observation{
		IP:       indexToIP(res.Index),
		Date:     date,
		Source:   e.o.Source,
		Protocol: scanstore.HTTPS,
		Cert:     cert,
		RSAOnly:  devices.RSAOnly(res.Suites),
	})
	if err != nil {
		e.rep.StoreErrors++
		e.ins.events.Warn(ctx, "zscan store failed",
			slog.Uint64("index", res.Index),
			slog.String("err", err.Error()))
		return
	}
	e.rep.Stored++
	e.sinceCP++
	key := cert.ModulusKey()
	if e.seen[key] {
		e.rep.DuplicateModuli++
		e.ins.dup.Inc()
	} else {
		e.seen[key] = true
		e.rep.NovelModuli++
		e.ins.novel.Inc()
		if e.o.Ingest != nil {
			if err := e.o.Ingest.Offer(ctx, fmt.Sprintf("%x", cert.N)); err != nil {
				e.ins.events.Warn(ctx, "zscan ingest offer failed",
					slog.String("err", err.Error()))
			}
		}
	}
	if e.sinceCP >= e.o.CheckpointEvery {
		if err := e.checkpoint(ctx, false); err != nil {
			e.ins.events.Error(ctx, "zscan checkpoint failed",
				slog.String("err", err.Error()))
		}
	}
}

// checkpoint writes a scanstore delta segment covering everything since
// the previous checkpoint. Segments are numbered so LoadSince can chain
// them back in order. final flushes a trailing partial segment.
func (e *Engine) checkpoint(ctx context.Context, final bool) error {
	if e.o.CheckpointDir == "" || e.sinceCP == 0 {
		return nil
	}
	if !final && e.sinceCP < e.o.CheckpointEvery {
		return nil
	}
	path := filepath.Join(e.o.CheckpointDir,
		fmt.Sprintf("zscan-%04d.delta", e.cpNext))
	// Written under a name the zscan-*.delta globs do not match and
	// renamed when complete, so a process killed mid-write leaves no
	// torn segment for LoadCheckpoints to choke on at restart. No fsync:
	// process death, not power loss, is the fault guarded against.
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("zscan: checkpoint: %w", err)
	}
	err = e.o.Store.SaveDelta(f, e.lastCP)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("zscan: checkpoint: %w", err)
	}
	records := e.sinceCP
	e.lastCP = e.o.Store.Checkpoint()
	e.sinceCP = 0
	e.cpNext++
	e.rep.Checkpoints++
	e.ins.checkpoints.Inc()
	e.ins.events.Info(ctx, "zscan checkpoint saved",
		slog.String("path", path),
		slog.Int("records", records))
	return nil
}

// indexToIP renders an address index as a dotted quad in the simulated
// scan's address plane (the low 32 bits of the index).
func indexToIP(idx uint64) string {
	return fmt.Sprintf("%d.%d.%d.%d",
		byte(idx>>24), byte(idx>>16), byte(idx>>8), byte(idx))
}
