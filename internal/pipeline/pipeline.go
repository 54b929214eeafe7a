// Package pipeline runs a study's stages one after another and records
// each one's cost: a span, two events, the pipeline_stage_* gauges and a
// row of the Report that `weakkeys -metrics` prints. Parallelism lives
// inside stages, as in the paper's cluster deployment: one step at a
// time, each step internally parallel.
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

// Stage is one named step. Run fills its row's ItemsIn, ItemsOut and
// Bytes, whose meaning is the stage's own but always "units consumed",
// "units produced" and "bytes of working set or output"; Run measures
// Wall and CPU.
type Stage struct {
	Name string
	Run  func(ctx context.Context, row *StageReport) error
}

// StageReport is one stage's row of a Report.
type StageReport struct {
	Name string
	// Wall is the stage's elapsed time and CPU the process's user+system
	// time over it. Stages run one at a time, so the process-wide delta
	// is the stage's, its worker goroutines included; without rusage it
	// is zero.
	Wall, CPU time.Duration
	// ItemsIn and ItemsOut count the units the stage consumed and
	// produced; Bytes is its working-set or output size.
	ItemsIn, ItemsOut, Bytes int64
	// Err is set only on the stage that failed: the stages after it
	// never ran and have no row.
	Err error
}

// Report is a run's per-stage cost profile: one row per stage that ran,
// and the totals over them.
type Report struct {
	Stages    []StageReport
	Wall, CPU time.Duration
}

// Sinks are where Run records the stages; any of them may be nil.
type Sinks struct {
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
	Events    *telemetry.EventLog
}

// Run runs the stages in order under ctx and stops at the first that
// fails, or that the context cancelled before it began. Each stage is
// recorded four ways: a child span of one "pipeline" root span, which
// rides the stage's context so the stage's own spans nest under it; a
// "stage start" and a "stage done" or "stage failed" event; the
// pipeline_stage_*{stage="..."} gauges and the completed and error
// counters; and a row of the returned Report, which comes back with the
// error too. The error wraps the stage's, so errors.Is sees a
// context.Canceled from inside it.
func Run(ctx context.Context, sinks Sinks, stages ...Stage) (*Report, error) {
	reg, events := sinks.Telemetry, sinks.Events
	report := &Report{Stages: make([]StageReport, 0, len(stages))}
	root := sinks.Tracer.Start("pipeline")
	defer root.End()
	ctx = telemetry.ContextWithEvents(ctx, events)
	for i, st := range stages {
		at := []slog.Attr{slog.String("stage", st.Name), slog.Int("index", i), slog.Int("total", len(stages))}
		row := StageReport{Name: st.Name}
		sp := root.Child(st.Name)
		err := ctx.Err()
		if err == nil {
			events.Info(ctx, "stage start", at...)
			cpu0, t0 := processCPU(), time.Now()
			err = st.Run(telemetry.ContextWithSpan(ctx, sp), &row)
			row.Wall, row.CPU = time.Since(t0), processCPU()-cpu0
		}
		sp.SetArg("items_in", row.ItemsIn)
		sp.SetArg("items_out", row.ItemsOut)
		sp.SetArg("bytes", row.Bytes)
		sp.SetArg("cpu_us", row.CPU.Microseconds())
		sp.End()
		label := `{stage="` + st.Name + `"}`
		reg.Gauge("pipeline_stage_wall_seconds" + label).Set(row.Wall.Seconds())
		reg.Gauge("pipeline_stage_cpu_seconds" + label).Set(row.CPU.Seconds())
		reg.Gauge("pipeline_stage_items_in" + label).Set(float64(row.ItemsIn))
		reg.Gauge("pipeline_stage_items_out" + label).Set(float64(row.ItemsOut))
		reg.Gauge("pipeline_stage_bytes" + label).Set(float64(row.Bytes))
		report.Wall += row.Wall
		report.CPU += row.CPU
		if err != nil {
			row.Err = fmt.Errorf("pipeline: stage %s: %w", st.Name, err)
			report.Stages = append(report.Stages, row)
			reg.Counter("pipeline_stage_errors_total").Inc()
			events.Info(ctx, "stage failed", append(at,
				slog.Duration("wall", row.Wall),
				slog.String("error", row.Err.Error()))...)
			return report, row.Err
		}
		report.Stages = append(report.Stages, row)
		reg.Counter("pipeline_stages_completed_total").Inc()
		events.Info(ctx, "stage done", append(at,
			slog.Duration("wall", row.Wall),
			slog.Duration("cpu", row.CPU),
			slog.Int64("items_in", row.ItemsIn),
			slog.Int64("items_out", row.ItemsOut),
			slog.Int64("bytes", row.Bytes))...)
	}
	return report, nil
}

// WriteText writes the report as an aligned text table, the `weakkeys
// -metrics` output. The rate column is ItemsOut per wall second; bytes
// are humanized so full-scale reports stay readable.
func (r *Report) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stage\twall\tcpu\titems in\titems out\trate\tbytes")
	for _, sr := range r.Stages {
		status := ""
		if sr.Err != nil {
			status = "\terror: " + sr.Err.Error()
		}
		fmt.Fprintf(tw, "%s\t%v\t%v\t%d\t%d\t%s\t%s%s\n",
			sr.Name, sr.Wall.Round(time.Microsecond), sr.CPU.Round(time.Microsecond),
			sr.ItemsIn, sr.ItemsOut, humanRate(sr.ItemsOut, sr.Wall), humanBytes(sr.Bytes), status)
	}
	fmt.Fprintf(tw, "total\t%v\t%v\t\t\t\t\n", r.Wall.Round(time.Microsecond), r.CPU.Round(time.Microsecond))
	return tw.Flush()
}

// humanRate formats an items-per-second throughput ("-" when the wall
// time is zero or the count is not positive: some stages record no item
// flow).
func humanRate(items int64, wall time.Duration) string {
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

// humanBytes formats a byte count with a binary-prefix unit.
func humanBytes(n int64) string {
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
