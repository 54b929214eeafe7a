// Package pipeline is the stage-oriented execution core of the study.
//
// The paper's measurement is an explicit multi-stage pipeline — corpus
// ingest, dedup, partitioned batch GCD, fingerprinting, longitudinal
// analysis — and every scaling discussion in it is per stage (the batch
// GCD alone gets a wall-clock / CPU-hours / per-node-memory budget). This
// package gives the reproduction the same shape: a typed Stage with a
// shared per-stage Stats record, and a Runner that plumbs one
// context.Context through every stage, emits progress events, and
// accumulates a RunReport so any run can print the cost profile of each
// of its stages.
//
// Stages run sequentially; the parallelism lives inside stages (worker
// pools, per-subset goroutines), which is also how the real system was
// deployed — one cluster step at a time, each step internally parallel.
package pipeline

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"text/tabwriter"
	"time"

	"github.com/factorable/weakkeys/internal/telemetry"
)

// Stats is the shared per-stage cost record. Every stage gets Wall and
// CPU filled in by the Runner; stages report their own ItemsIn,
// ItemsOut and Bytes, whose meaning is stage-specific (documented per
// stage) but always "units consumed", "units produced" and "bytes of
// working set or output".
type Stats struct {
	// Wall is the stage's elapsed time.
	Wall time.Duration
	// CPU is the process CPU time (user+system, all goroutines)
	// consumed while the stage ran. Stages execute sequentially, so the
	// process-wide delta is attributable to the stage; on platforms
	// without rusage it is zero.
	CPU time.Duration
	// ItemsIn counts the units the stage consumed.
	ItemsIn int64
	// ItemsOut counts the units the stage produced.
	ItemsOut int64
	// Bytes is the stage's working-set or output size in bytes.
	Bytes int64
}

// Stage is one named pipeline step. Run receives the pipeline context —
// it must honour cancellation promptly, including mid-computation — and
// the stage's own Stats record to fill ItemsIn/ItemsOut/Bytes (Wall and
// CPU are measured by the Runner).
type Stage struct {
	Name string
	Run  func(ctx context.Context, st *Stats) error
}

// EventKind distinguishes progress callbacks.
type EventKind int

const (
	// StageStart fires before a stage runs; Stats is zero.
	StageStart EventKind = iota
	// StageDone fires after a stage returns nil; Stats is final.
	StageDone
	// StageError fires after a stage returns an error; Stats holds
	// whatever was measured up to the failure and Err the cause.
	StageError
)

// Event is one progress notification.
type Event struct {
	// Stage is the stage name.
	Stage string
	// Index is the zero-based stage position; Total the stage count.
	Index, Total int
	Kind         EventKind
	Stats        Stats
	Err          error
}

// ProgressFunc receives progress events. Callbacks run synchronously on
// the pipeline goroutine, in order; a nil func disables them.
type ProgressFunc func(Event)

// StageReport is one stage's outcome inside a RunReport.
type StageReport struct {
	Name  string
	Stats Stats
	// Err is non-nil only for the stage that failed (stages after it
	// never ran and are absent from the report).
	Err error
}

// RunReport is the accumulated cost profile of a pipeline run.
type RunReport struct {
	Stages []StageReport
	// Wall and CPU are totals across all executed stages.
	Wall time.Duration
	CPU  time.Duration
}

// WriteText dumps the per-stage report as an aligned text table — the
// `weakkeys -metrics` output. The rate column is ItemsOut per wall
// second; bytes are humanized so full-scale reports stay readable.
func (r *RunReport) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stage\twall\tcpu\titems in\titems out\trate\tbytes")
	for _, sr := range r.Stages {
		status := ""
		if sr.Err != nil {
			status = "\terror: " + sr.Err.Error()
		}
		fmt.Fprintf(tw, "%s\t%v\t%v\t%d\t%d\t%s\t%s%s\n",
			sr.Name, sr.Stats.Wall.Round(time.Microsecond), sr.Stats.CPU.Round(time.Microsecond),
			sr.Stats.ItemsIn, sr.Stats.ItemsOut,
			HumanRate(sr.Stats.ItemsOut, sr.Stats.Wall), HumanBytes(sr.Stats.Bytes), status)
	}
	fmt.Fprintf(tw, "total\t%v\t%v\t\t\t\t\n", r.Wall.Round(time.Microsecond), r.CPU.Round(time.Microsecond))
	return tw.Flush()
}

// HumanRate formats an items-per-second throughput from a count and the
// wall time it took ("-" when the wall time is zero or the count is not
// positive — some stages legitimately record no item flow).
func HumanRate(items int64, wall time.Duration) string {
	if wall <= 0 || items <= 0 {
		return "-"
	}
	rate := float64(items) / wall.Seconds()
	switch {
	case rate >= 1e6:
		return fmt.Sprintf("%.1fM/s", rate/1e6)
	case rate >= 1e3:
		return fmt.Sprintf("%.1fk/s", rate/1e3)
	case rate >= 10:
		return fmt.Sprintf("%.0f/s", rate)
	default:
		return fmt.Sprintf("%.2f/s", rate)
	}
}

// HumanBytes formats a byte count with a binary-prefix unit.
func HumanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Runner executes stages in order under one context.
type Runner struct {
	// Progress, when set, receives a StageStart and a StageDone (or
	// StageError) event per stage.
	Progress ProgressFunc
	// Metrics, when set, receives live mirrors of each stage's Stats:
	// gauges pipeline_stage_{wall_seconds,cpu_seconds,items_in,items_out,
	// bytes}{stage="X"} plus the pipeline_stages_completed_total and
	// pipeline_stage_errors_total counters.
	Metrics *telemetry.Registry
	// Tracer, when set, records one span per stage nested under a
	// "pipeline" root span. The stage span rides the context into the
	// stage (telemetry.SpanFrom), so stage internals can open child
	// spans — the distgcd per-node tracks hang off it.
	Tracer *telemetry.Tracer
	// Events, when set, records structured stage lifecycle events in
	// the flight recorder: start at debug, completion (with the stage's
	// stats) at info, failure at error. The log also rides the stage
	// context (telemetry.EventsFrom) so stage internals emit into the
	// same recorder.
	Events *telemetry.EventLog
}

// Run executes the stages sequentially. It returns the report for every
// stage that ran — including, on failure, the failing stage with its
// partial stats — alongside the first error. Cancellation is checked
// before each stage and honoured inside stages; the resulting error
// wraps context.Canceled (or DeadlineExceeded) so callers can test it
// with errors.Is.
func (r *Runner) Run(ctx context.Context, stages ...Stage) (*RunReport, error) {
	report := &RunReport{Stages: make([]StageReport, 0, len(stages))}
	// The root span nests every stage span; it is the nil no-op span
	// when no tracer is configured.
	root := r.Tracer.Start("pipeline")
	defer root.End()
	for i, stage := range stages {
		if err := ctx.Err(); err != nil {
			err = fmt.Errorf("pipeline: before stage %s: %w", stage.Name, err)
			report.Stages = append(report.Stages, StageReport{Name: stage.Name, Err: err})
			r.emit(Event{Stage: stage.Name, Index: i, Total: len(stages), Kind: StageError, Err: err})
			return report, err
		}
		r.emit(Event{Stage: stage.Name, Index: i, Total: len(stages), Kind: StageStart})
		stageCtx := telemetry.ContextWithEvents(ctx, r.Events)
		sp := root.Child(stage.Name)
		if sp != nil {
			stageCtx = telemetry.ContextWithSpan(stageCtx, sp)
		}
		r.Events.Debug(stageCtx, "stage start",
			slog.String("stage", stage.Name),
			slog.Int("index", i),
			slog.Int("total", len(stages)))
		var st Stats
		cpu0 := processCPU()
		t0 := time.Now()
		err := stage.Run(stageCtx, &st)
		st.Wall = time.Since(t0)
		st.CPU = processCPU() - cpu0
		report.Wall += st.Wall
		report.CPU += st.CPU
		sp.SetArg("items_in", st.ItemsIn)
		sp.SetArg("items_out", st.ItemsOut)
		sp.SetArg("bytes", st.Bytes)
		sp.End()
		r.mirror(stage.Name, st, err)
		if err != nil {
			err = fmt.Errorf("pipeline: stage %s: %w", stage.Name, err)
			report.Stages = append(report.Stages, StageReport{Name: stage.Name, Stats: st, Err: err})
			r.Events.Error(stageCtx, "stage failed",
				slog.String("stage", stage.Name),
				slog.Duration("wall", st.Wall),
				slog.String("error", err.Error()))
			r.emit(Event{Stage: stage.Name, Index: i, Total: len(stages), Kind: StageError, Stats: st, Err: err})
			return report, err
		}
		report.Stages = append(report.Stages, StageReport{Name: stage.Name, Stats: st})
		r.Events.Info(stageCtx, "stage done",
			slog.String("stage", stage.Name),
			slog.Duration("wall", st.Wall),
			slog.Duration("cpu", st.CPU),
			slog.Int64("items_in", st.ItemsIn),
			slog.Int64("items_out", st.ItemsOut),
			slog.Int64("bytes", st.Bytes))
		r.emit(Event{Stage: stage.Name, Index: i, Total: len(stages), Kind: StageDone, Stats: st})
	}
	return report, nil
}

// mirror publishes one stage's Stats into the registry so a live
// /metrics scrape sees per-stage costs as they complete.
func (r *Runner) mirror(name string, st Stats, err error) {
	if r.Metrics == nil {
		return
	}
	label := `{stage="` + name + `"}`
	r.Metrics.Gauge("pipeline_stage_wall_seconds" + label).Set(st.Wall.Seconds())
	r.Metrics.Gauge("pipeline_stage_cpu_seconds" + label).Set(st.CPU.Seconds())
	r.Metrics.Gauge("pipeline_stage_items_in" + label).Set(float64(st.ItemsIn))
	r.Metrics.Gauge("pipeline_stage_items_out" + label).Set(float64(st.ItemsOut))
	r.Metrics.Gauge("pipeline_stage_bytes" + label).Set(float64(st.Bytes))
	r.Metrics.Histogram("pipeline_stage_wall_seconds_hist", telemetry.DurationBuckets).Observe(st.Wall.Seconds())
	if err != nil {
		r.Metrics.Counter("pipeline_stage_errors_total").Inc()
	} else {
		r.Metrics.Counter("pipeline_stages_completed_total").Inc()
	}
}

func (r *Runner) emit(ev Event) {
	if r.Progress != nil {
		r.Progress(ev)
	}
}
