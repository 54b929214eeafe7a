package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"github.com/factorable/weakkeys/internal/telemetry"
)

// sizes are the dimensions of the four workloads. The benchmark always
// runs benchSizes; the harness tests run the same code at toy sizes.
type sizes struct {
	batchCorpus  int           // moduli factored by batch_gcd
	serveCorpus  int           // moduli indexed by the three serving workloads
	novelPool    int           // never-indexed moduli serve_cold submits
	hotSet       int           // keys routed_hot draws from
	fleetDevices int           // devices the scan_ingest sweep finds
	fleetSpace   uint64        // addresses the sweep probes
	setups       int           // set-up repetitions whose median is setup_s
	windows      int           // measurement windows of a closed loop
	onion        int           // calls per layer and class in a traced pass
	refSlice     time.Duration // one run of the reference kernel (ref.go) between windows
	refLong      time.Duration // one run around a stretch that cannot pause: a set-up, a batch repetition
}

var benchSizes = sizes{
	batchCorpus:  65536,
	serveCorpus:  32768,
	novelPool:    2048,
	hotSet:       256,
	fleetDevices: 3000,
	fleetSpace:   1 << 22,
	setups:       3,
	windows:      8,
	onion:        200,
	refSlice:     100 * time.Millisecond,
	refLong:      300 * time.Millisecond,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	clients  int
	sizes    sizes
	// skewTruth makes the generator lie about one key, so the harness
	// tests can prove that a disagreeing oracle is counted and fatal.
	skewTruth bool
	// traceOut is where a traced pass writes its Chrome trace.
	traceOut string
}

// The six end-to-end metrics. Every workload reports all of them, so
// the operation metrics are named by role; Alias in the output and the
// table in README.md say what the operation is on each workload.
const (
	mSetup   = "setup_s"
	mRSS     = "peak_rss_mb"
	mOps     = "ops_per_s"
	mP50     = "op_p50_ms"
	mSide    = "side_per_s"
	mSideP50 = "side_p50_ms"
)

var e2eNames = []string{mSetup, mRSS, mOps, mP50, mSide, mSideP50}

// Tail latencies are printed with every run but carry no bound: on the
// reference box they swing with the host's state several times further
// than the machine-speed correction reaches (README.md, "Demoted").
const (
	mP90 = "op_p90_ms"
	mP99 = "op_p99_ms"
	mMax = "op_max_ms"
)

// layerUnits lists every per-layer metric of the traced pass with its
// unit. A traced run prints all of them; a layer the workload never
// calls reports 0.
var layerUnits = map[string]string{
	"prodtree.build_s": "s", "prodtree.remainder_s": "s", "prodtree.tree_mb": "MB", "prodtree.nodes": "count",
	"batchgcd.factor_s": "s", "batchgcd.serial_factor_s": "s", "batchgcd.mallocs": "count",
	"kernel.speedup": "ratio", "kernel.jobs": "count", "kernel.inline_jobs": "count", "kernel.ops": "count",
	"kernel.chunks": "count", "kernel.chunk_wait_ms": "ms", "kernel.arena_hit_share": "ratio",
	"distgcd.wall_s": "s", "distgcd.cpu_s": "s", "distgcd.peak_node_mb": "MB",
	"keycheck.build_s": "s", "net.roundtrip_us": "us",
	"keycheck.handler_us": "us", "keycheck.parse_us": "us", "keycheck.limiter_us": "us",
	"keycheck.service_check_us.member_clean": "us", "keycheck.service_check_us.member_factored": "us",
	"keycheck.service_check_us.novel_clean": "us", "keycheck.service_check_us.novel_shared": "us",
	"keycheck.service_check_us.hot":           "us",
	"keycheck.snapshot_check_us.member_clean": "us", "keycheck.snapshot_check_us.member_factored": "us",
	"keycheck.snapshot_check_us.novel_clean": "us", "keycheck.snapshot_check_us.novel_shared": "us",
	"anomaly.probe_us": "us", "keycheck.cache_hit_share": "ratio", "keycheck.shed_total": "count",
	"cluster.router_http_us": "us", "cluster.router_check_us": "us", "cluster.replica_check_us": "us",
	"cluster.hops_per_check": "count", "cluster.hedges": "count", "cluster.retries": "count", "cluster.degraded": "count",
	"zscan.walk_ns": "ns", "zscan.fleet_probe_ns": "ns", "certs.parse_us": "us", "scanstore.add_us": "us",
	"zscan.engine_probes_per_s": "1/s", "zscan.hits": "count", "zscan.novel_moduli": "count",
	"zscan.probe_errors": "count", "bench.pacer_late_ms": "ms",
	"zscan.bridge_wait_ms": "ms", "keycheck.ingest_rtt_ms": "ms", "fresh.ack_to_verdict_ms": "ms",
	"fresh.p50_ms": "ms", "fresh.p90_ms": "ms", "load.p90_ms": "ms", "load.p99_ms": "ms",
	"keycheck.ingest_direct_ms": "ms", "keycheck.ingest_nodes_built": "count",
	"keycheck.ingest_nodes_reused": "count", "keycheck.ingest_touched_shards": "count",
	"zscan.bridge_batches": "count", "zscan.bridge_retries": "count", "zscan.bridge_dropped": "count",
	"scanstore.save_delta_ms":    "ms",
	"bench.trace_overhead_share": "ratio", "bench.gen_s": "s", "bench.machine_speed": "ratio",
}

func layerNames() []string {
	names := make([]string, 0, len(layerUnits))
	for name := range layerUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Loop      string            `json:"loop"`
	Clients   int               `json:"clients"`
	Network   string            `json:"network"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	FirstFail string            `json:"first_failure,omitempty"`
	Inputs    map[string]string `json:"inputs"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(cfg config, loop string, clients int) *result {
	return &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Loop: loop, Clients: clients, Network: network,
		Inputs: map[string]string{}, Metrics: map[string]metric{},
	}
}

// count adds operations to the failed_share ledger; why describes the
// first failure for the report.
func (r *result) count(attempted, failed int, why error) {
	r.Attempted += int64(attempted)
	r.Failed += int64(failed)
	if failed > 0 && r.FirstFail == "" && why != nil {
		r.FirstFail = why.Error()
	}
}

// check counts one verified output.
func (r *result) check(ok bool, format string, args ...any) {
	if ok {
		r.count(1, 0, nil)
		return
	}
	r.count(1, 1, fmt.Errorf(format, args...))
}

func (r *result) failedShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// layer records a per-layer metric, rejecting names the traced pass
// does not declare.
func (r *result) layer(name string, value float64, n int) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("bench: undeclared layer metric " + name)
	}
	r.Metrics[name] = scalar(unit, value, n)
}

// machine is the provenance block printed with every result.
type machine struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func thisMachine() machine {
	m := machine{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// peakRSSMB is ru_maxrss of this process (Linux reports kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// repeatSetup runs setup n times, tearing down all but the last, and
// returns the last system with setup_s: the median set-up time,
// corrected by the machine's speed while each ran. Garbage of a
// torn-down system is released before the next is timed so neither
// setup_s nor peak_rss_mb depends on the repetition count.
func repeatSetup[T any](sz sizes, setup func() (T, error), teardown func(T)) (T, metric, error) {
	var sys T
	var secs, speeds []float64
	var track speedTrack
	for i := 0; i < sz.setups; i++ {
		if i > 0 {
			teardown(sys)
			debug.FreeOSMemory()
		}
		track.mark(sz.refLong)
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return sys, metric{}, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		speeds = append(speeds, track.lap())
		sys = s
	}
	return sys, timesAt(speeds, "s", "", len(secs), secs), nil
}

// tracing is the traced pass's span recorder. Spans are taken around
// the harness's own calls into a layer, one track per layer, and carry
// the phase that caused them and the request they belong to.
type tracing struct {
	tracer *telemetry.Tracer
	phase  *telemetry.Span
	name   string
	tracks map[string]int
}

func newTracing() *tracing {
	return &tracing{tracer: telemetry.NewTracer(), tracks: map[string]int{}}
}

// begin opens the phase span later calls are children of.
func (t *tracing) begin(phase string) {
	t.end()
	t.phase, t.name = t.tracer.Start(phase), phase
}

func (t *tracing) end() {
	t.phase.End()
	t.phase = nil
}

// call times f inside a span named after the layer entry point.
func (t *tracing) call(layer, requestID string, f func()) time.Duration {
	track, ok := t.tracks[layer]
	if !ok {
		track = 100 + len(t.tracks)
		t.tracks[layer] = track
	}
	sp := t.phase.ChildTrack(layer, track)
	sp.SetArg("parent", t.name)
	if requestID != "" {
		sp.SetArg("request_id", requestID)
	}
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.End()
	return d
}
