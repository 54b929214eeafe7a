package pipeline

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/telemetry"
)

func TestRunAccumulatesStats(t *testing.T) {
	report, err := Run(context.Background(),
		Stage{Name: "a", Run: func(ctx context.Context, st *Stats) error {
			st.ItemsIn, st.ItemsOut, st.Bytes = 10, 7, 1024
			return nil
		}},
		Stage{Name: "b", Run: func(ctx context.Context, st *Stats) error {
			st.ItemsIn, st.ItemsOut = 7, 7
			return nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(report.Stages))
	}
	a := report.Stage("a")
	if a == nil || a.Stats.ItemsIn != 10 || a.Stats.ItemsOut != 7 || a.Stats.Bytes != 1024 {
		t.Errorf("stage a stats = %+v", a)
	}
	if a.Stats.Wall <= 0 {
		t.Error("stage wall time not measured")
	}
	if report.Wall < a.Stats.Wall {
		t.Error("report wall below stage wall")
	}
	if report.Stage("missing") != nil {
		t.Error("Stage(missing) should be nil")
	}
}

func TestRunStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	ran := []string{}
	report, err := Run(context.Background(),
		Stage{Name: "ok", Run: func(ctx context.Context, st *Stats) error {
			ran = append(ran, "ok")
			return nil
		}},
		Stage{Name: "fail", Run: func(ctx context.Context, st *Stats) error {
			ran = append(ran, "fail")
			return boom
		}},
		Stage{Name: "never", Run: func(ctx context.Context, st *Stats) error {
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
	if len(report.Stages) != 2 || report.Stages[1].Err == nil {
		t.Errorf("report should include the failing stage: %+v", report.Stages)
	}
}

func TestRunHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Stage{Name: "never", Run: func(ctx context.Context, st *Stats) error {
		t.Error("stage ran under cancelled context")
		return nil
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestProgressEventOrder(t *testing.T) {
	var events []Event
	r := &Runner{Progress: func(ev Event) { events = append(events, ev) }}
	_, err := r.Run(context.Background(),
		Stage{Name: "one", Run: func(ctx context.Context, st *Stats) error { return nil }},
		Stage{Name: "two", Run: func(ctx context.Context, st *Stats) error { return errors.New("x") }},
	)
	if err == nil {
		t.Fatal("want error")
	}
	want := []struct {
		stage string
		kind  EventKind
	}{
		{"one", StageStart}, {"one", StageDone},
		{"two", StageStart}, {"two", StageError},
	}
	if len(events) != len(want) {
		t.Fatalf("events = %d, want %d", len(events), len(want))
	}
	for i, w := range want {
		if events[i].Stage != w.stage || events[i].Kind != w.kind {
			t.Errorf("event %d = {%s %d}, want {%s %d}", i, events[i].Stage, events[i].Kind, w.stage, w.kind)
		}
		if events[i].Total != 2 {
			t.Errorf("event %d Total = %d, want 2", i, events[i].Total)
		}
	}
}

func TestMidStageCancellationIsWrapped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	_, err := Run(ctx, Stage{Name: "waits", Run: func(ctx context.Context, st *Stats) error {
		cancel()
		<-ctx.Done()
		return ctx.Err()
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestWriteText(t *testing.T) {
	report, err := Run(context.Background(),
		Stage{Name: "dedup", Run: func(ctx context.Context, st *Stats) error {
			st.ItemsIn, st.ItemsOut = 100, 80
			return nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := report.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"stage", "dedup", "100", "80", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("report text missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextRateAndBytesColumns(t *testing.T) {
	report := &RunReport{
		Stages: []StageReport{{
			Name:  "harvest",
			Stats: Stats{Wall: 2 * time.Second, ItemsIn: 100, ItemsOut: 5000, Bytes: 3 << 20},
		}},
		Wall: 2 * time.Second,
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
		if got := HumanRate(tc.items, tc.wall); got != tc.want {
			t.Errorf("HumanRate(%d, %v) = %q, want %q", tc.items, tc.wall, got, tc.want)
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
		if got := HumanBytes(tc.n); got != tc.want {
			t.Errorf("HumanBytes(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

// TestRunnerTelemetry checks that a Runner with a registry and tracer
// mirrors each stage's stats into gauges and records nested spans, and
// that the stage context carries the stage span for deeper nesting.
func TestRunnerTelemetry(t *testing.T) {
	reg := telemetry.New()
	tr := telemetry.NewTracer()
	r := &Runner{Metrics: reg, Tracer: tr}
	_, err := r.Run(context.Background(),
		Stage{Name: "work", Run: func(ctx context.Context, st *Stats) error {
			st.ItemsIn, st.ItemsOut, st.Bytes = 10, 8, 4096
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

func TestRunnerTelemetryCountsErrors(t *testing.T) {
	reg := telemetry.New()
	r := &Runner{Metrics: reg}
	_, err := r.Run(context.Background(),
		Stage{Name: "boom", Run: func(ctx context.Context, st *Stats) error {
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
}
