// Package telemetry is the live observability layer of the study: a
// stdlib-only metrics registry (atomic counters, gauges and fixed-bucket
// histograms with a consistent snapshot API), lightweight span tracing
// exported as Chrome trace_event JSON, and a diagnostics HTTP server
// serving /metrics (Prometheus text exposition), /debug/vars
// (expvar-style JSON) and net/http/pprof.
//
// The paper's scaling story is a cost ledger — wall clock, CPU hours and
// per-node memory for every batch-GCD step on a 22-node cluster — and
// sustained measurement systems (ZMap and its descendants) live or die
// by continuous rate/error telemetry on their scan loops. The study's
// per-stage report (pipeline.Report) is that ledger post mortem; this
// package makes the same quantities observable while a run is live.
//
// Every handle type is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *Tracer or *Span are no-ops, and a nil *Registry hands out
// nil handles. Instrumentation call sites therefore never branch on
// "is telemetry enabled" — they record unconditionally and disabling
// telemetry costs one predicted branch per operation.
//
// Metric names follow Prometheus conventions and may carry inline
// labels, e.g. pipeline_stage_items_out{stage="Dedup"}. The full string
// is the registry key; the exposition writer understands the brace
// syntax when grouping TYPE lines and splicing the histogram "le" label.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (nil-safe). Negative deltas are
// ignored: counters only go up.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one (nil-safe).
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (nil-safe).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v (nil-safe).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta to the gauge with a CAS loop (nil-safe).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (nil-safe).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry holds named metrics. The zero value is not usable; call New.
// All methods are safe for concurrent use, and handles are get-or-create
// so independent packages agree on a metric by naming it identically.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls reuse the existing
// buckets regardless of the argument). A nil registry returns a nil
// (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterValue reads a counter by name without creating it (0 if absent).
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.counters[name].Value()
}

// GaugeValue reads a gauge by name without creating it (0 if absent).
func (r *Registry) GaugeValue(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gauges[name].Value()
}

// CounterSnapshot is one counter's state.
type CounterSnapshot struct {
	Name  string
	Value int64
}

// GaugeSnapshot is one gauge's state.
type GaugeSnapshot struct {
	Name  string
	Value float64
}

// HistogramSnapshot is one histogram's state. Counts are per-bucket
// (not cumulative); Counts[len(Bounds)] is the overflow (+Inf) bucket.
type HistogramSnapshot struct {
	Name   string
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot is a point-in-time copy of every metric, sorted by name.
type Snapshot struct {
	Counters   []CounterSnapshot
	Gauges     []GaugeSnapshot
	Histograms []HistogramSnapshot
}

// Snapshot copies the registry's current state. Each metric is read
// atomically; the snapshot as a whole is not a single atomic cut, which
// is the standard scrape semantics. A nil registry yields an empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, h.snapshot(name))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
