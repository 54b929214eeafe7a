package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/telemetry"
)

func TestRunAccumulatesStats(t *testing.T) {
	report, err := Run(context.Background(), Sinks{},
		Stage{Name: "a", Run: func(ctx context.Context, row *StageReport) error {
			row.ItemsIn, row.ItemsOut, row.Bytes = 10, 7, 1024
			return nil
		}},
		Stage{Name: "b", Run: func(ctx context.Context, row *StageReport) error {
			row.ItemsIn, row.ItemsOut = 7, 7
			return nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(report.Stages))
	}
	a := &report.Stages[0]
	if a.Name != "a" || a.ItemsIn != 10 || a.ItemsOut != 7 || a.Bytes != 1024 {
		t.Errorf("stage a row = %+v", a)
	}
	if a.Wall <= 0 {
		t.Error("stage wall time not measured")
	}
	if report.Wall != report.Stages[0].Wall+report.Stages[1].Wall {
		t.Errorf("report wall %v is not the sum of its rows", report.Wall)
	}
}

func TestRunStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	ran := []string{}
	report, err := Run(context.Background(), Sinks{},
		Stage{Name: "ok", Run: func(ctx context.Context, row *StageReport) error {
			ran = append(ran, "ok")
			return nil
		}},
		Stage{Name: "fail", Run: func(ctx context.Context, row *StageReport) error {
			ran = append(ran, "fail")
			return boom
		}},
		Stage{Name: "never", Run: func(ctx context.Context, row *StageReport) error {
			ran = append(ran, "never")
			return nil
		}},
	)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "stage fail") {
		t.Errorf("error should name the stage: %v", err)
	}
	if len(ran) != 2 {
		t.Errorf("ran = %v, stage after failure must not run", ran)
	}
	if len(report.Stages) != 2 || report.Stages[0].Err != nil || report.Stages[1].Err != err {
		t.Errorf("report should end with the failing stage: %+v", report.Stages)
	}
}

func TestRunHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := Run(ctx, Sinks{}, Stage{Name: "never", Run: func(ctx context.Context, row *StageReport) error {
		t.Error("stage ran under cancelled context")
		return nil
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(report.Stages) != 1 || report.Stages[0].Err != err {
		t.Errorf("the stage the context cancelled should have a failing row: %+v", report.Stages)
	}
}

// TestProgressEventOrder checks the events a run emits: "stage start"
// then "stage done" or "stage failed", all at info, each with the
// stage's name, index and the stage count.
func TestProgressEventOrder(t *testing.T) {
	events := telemetry.NewEventLog(telemetry.EventConfig{})
	_, err := Run(context.Background(), Sinks{Events: events},
		Stage{Name: "one", Run: func(ctx context.Context, row *StageReport) error { return nil }},
		Stage{Name: "two", Run: func(ctx context.Context, row *StageReport) error { return errors.New("x") }},
	)
	if err == nil {
		t.Fatal("want error")
	}
	var got []string
	for _, ev := range events.Events() {
		if ev.Attr("total") != "2" {
			t.Errorf("event %q lacks total=2: %v", ev.Msg, ev.Attrs)
		}
		got = append(got, fmt.Sprintf("%s %s %s %s", ev.Level, ev.Msg, ev.Attr("stage"), ev.Attr("index")))
	}
	want := []string{"INFO stage start one 0", "INFO stage done one 0", "INFO stage start two 1", "INFO stage failed two 1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("events = %q, want %q", got, want)
	}
}

// TestMidStageCancellationIsWrapped cancels the run from inside a stage:
// the error wraps context.Canceled and names the stage, the stage gets a
// failing row, and no later stage runs.
func TestMidStageCancellationIsWrapped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	report, err := Run(ctx, Sinks{},
		Stage{Name: "waits", Run: func(ctx context.Context, row *StageReport) error {
			cancel()
			<-ctx.Done()
			return ctx.Err()
		}},
		Stage{Name: "never", Run: func(ctx context.Context, row *StageReport) error {
			t.Error("a stage after the cancellation ran")
			return nil
		}},
	)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "stage waits") {
		t.Fatalf("err = %v, want a wrapped context.Canceled naming the stage", err)
	}
	if len(report.Stages) != 1 || report.Stages[0].Err != err {
		t.Errorf("report rows = %+v, want the failing waits alone", report.Stages)
	}
}

// TestRunnerTelemetry checks that a run with a registry and tracer
// mirrors each stage's row into gauges and records nested spans, and
// that the stage context carries the stage span for deeper nesting.
func TestRunnerTelemetry(t *testing.T) {
	reg, tr := telemetry.New(), telemetry.NewTracer()
	_, err := Run(context.Background(), Sinks{Telemetry: reg, Tracer: tr},
		Stage{Name: "work", Run: func(ctx context.Context, row *StageReport) error {
			row.ItemsIn, row.ItemsOut, row.Bytes = 10, 8, 4096
			sp := telemetry.SpanFrom(ctx)
			if sp == nil {
				t.Error("stage context should carry the stage span")
			}
			sp.Child("inner").End()
			return nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.GaugeValue(`pipeline_stage_items_out{stage="work"}`); got != 8 {
		t.Errorf("items_out gauge = %g, want 8", got)
	}
	if got := reg.GaugeValue(`pipeline_stage_bytes{stage="work"}`); got != 4096 {
		t.Errorf("bytes gauge = %g, want 4096", got)
	}
	if got := reg.GaugeValue(`pipeline_stage_wall_seconds{stage="work"}`); got <= 0 {
		t.Errorf("wall gauge = %g, want > 0", got)
	}
	if got := reg.CounterValue("pipeline_stages_completed_total"); got != 1 {
		t.Errorf("completed counter = %d, want 1", got)
	}
	names := map[string]bool{}
	for _, ev := range tr.Events() {
		names[ev.Name] = true
	}
	for _, want := range []string{"pipeline", "work", "inner"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
}

// TestRunnerTelemetryCountsErrors checks a failing stage's records: the
// error counter, no completion, and its gauges and span all the same.
func TestRunnerTelemetryCountsErrors(t *testing.T) {
	reg, tr := telemetry.New(), telemetry.NewTracer()
	_, err := Run(context.Background(), Sinks{Telemetry: reg, Tracer: tr},
		Stage{Name: "boom", Run: func(ctx context.Context, row *StageReport) error {
			row.ItemsIn = 3
			time.Sleep(time.Millisecond)
			return errors.New("boom")
		}},
	)
	if err == nil {
		t.Fatal("want error")
	}
	if got := reg.CounterValue("pipeline_stage_errors_total"); got != 1 {
		t.Errorf("error counter = %d, want 1", got)
	}
	if got := reg.CounterValue("pipeline_stages_completed_total"); got != 0 {
		t.Errorf("completed counter = %d, want 0", got)
	}
	if got := reg.GaugeValue(`pipeline_stage_items_in{stage="boom"}`); got != 3 {
		t.Errorf("items_in gauge = %g, want 3", got)
	}
	if got := reg.GaugeValue(`pipeline_stage_wall_seconds{stage="boom"}`); got <= 0 {
		t.Errorf("wall gauge = %g, want > 0", got)
	}
	names := map[string]bool{}
	for _, ev := range tr.Events() {
		names[ev.Name] = true
	}
	if !names["boom"] {
		t.Errorf("trace missing the failing stage's span (have %v)", names)
	}
}

// TestWriteText checks the -metrics table: a header, one row per stage
// with its counts, rate and bytes, the failing stage's error, and the
// totals.
func TestWriteText(t *testing.T) {
	r := &Report{
		Stages: []StageReport{
			{Name: "Harvest", Wall: 2 * time.Second, ItemsIn: 100, ItemsOut: 5000, Bytes: 3 << 20},
			{Name: "Fingerprint", ItemsOut: 7},
			{Name: "BatchGCD", Wall: time.Second, ItemsIn: 9, Err: errors.New("pipeline: stage BatchGCD: boom")},
		},
		Wall: 3 * time.Second,
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	want := [][]string{
		{"stage", "wall", "cpu", "items", "in", "items", "out", "rate", "bytes"},
		{"Harvest", "2s", "0s", "100", "5000", "2.5k/s", "3.00", "MiB"},
		{"Fingerprint", "0s", "0s", "0", "7", "-", "0", "B"},
		{"BatchGCD", "1s", "0s", "9", "0", "-", "0", "B", "error:", "pipeline:", "stage", "BatchGCD:", "boom"},
		{"total", "3s", "0s"},
	}
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(want), sb.String())
	}
	for i, w := range want {
		if got := strings.Fields(lines[i]); fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("line %d = %q, want fields %q", i, lines[i], w)
		}
	}
}

func TestWriteTextRateAndBytesColumns(t *testing.T) {
	report := &Report{
		Stages: []StageReport{{Name: "harvest", Wall: 2 * time.Second, ItemsIn: 100, ItemsOut: 5000, Bytes: 3 << 20}},
		Wall:   2 * time.Second,
	}
	var sb strings.Builder
	if err := report.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"rate", "2.5k/s", "3.00 MiB"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestHumanRate(t *testing.T) {
	for _, tc := range []struct {
		items int64
		wall  time.Duration
		want  string
	}{
		{0, 0, "-"},
		{0, time.Second, "-"},
		{-1239, time.Second, "-"},
		{100, time.Second, "100/s"},
		{5, 2 * time.Second, "2.50/s"},
		{2_500_000, time.Second, "2.5M/s"},
		{1500, time.Second, "1.5k/s"},
	} {
		if got := humanRate(tc.items, tc.wall); got != tc.want {
			t.Errorf("humanRate(%d, %v) = %q, want %q", tc.items, tc.wall, got, tc.want)
		}
	}
}

func TestHumanBytes(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.0 KiB"},
		{3 << 20, "3.00 MiB"},
		{5 << 30, "5.00 GiB"},
	} {
		if got := humanBytes(tc.n); got != tc.want {
			t.Errorf("humanBytes(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}
