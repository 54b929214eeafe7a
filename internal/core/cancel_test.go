package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/pipeline"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// stageReport returns r's row for the named stage, or nil.
func stageReport(r *pipeline.Report, name string) *pipeline.StageReport {
	for i := range r.Stages {
		if r.Stages[i].Name == name {
			return &r.Stages[i]
		}
	}
	return nil
}

// cancelOn is an event-log tee that cancels when a line it is handed
// contains line.
type cancelOn struct {
	line   []byte
	cancel context.CancelFunc
}

func (c cancelOn) Write(p []byte) (int, error) {
	if bytes.Contains(p, c.line) {
		c.cancel()
	}
	return len(p), nil
}

// runCancelling runs a small study and cancels the context as soon as
// the event log narrates the named stage's start, returning the partial
// study and the error (guarded by a timeout so a hung cancellation
// fails the test instead of the suite).
func runCancelling(t *testing.T, stage string, subsets int) (*Study, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		study *Study
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		study, err := Run(ctx, Options{
			Seed:    3,
			KeyBits: 128,
			Scale:   0.05,
			Subsets: subsets,
			Events: telemetry.NewEventLog(telemetry.EventConfig{
				Tee: cancelOn{[]byte(`msg="stage start" stage=` + stage + " "), cancel},
			}),
		})
		done <- outcome{study, err}
	}()
	select {
	case out := <-done:
		return out.study, out.err
	case <-time.After(30 * time.Second):
		t.Fatalf("run did not return promptly after cancellation during %s", stage)
		return nil, nil
	}
}

func TestRunCancelledMidBatchGCD(t *testing.T) {
	for _, tc := range []struct {
		name    string
		subsets int
	}{
		{"singletree", 1},
		{"partitioned", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runCancelling(t, StageBatchGCD, tc.subsets)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want wrapped context.Canceled", err)
			}
		})
	}
}

func TestRunCancelledMidHarvest(t *testing.T) {
	_, err := runCancelling(t, StageHarvest, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// TestPartialStudyOnCancel is the `weakkeys -metrics` error-path fix: a
// cancelled run must still hand back the partial study whose Report
// covers every stage that started, so the cost profile of the work done
// so far can be printed.
func TestPartialStudyOnCancel(t *testing.T) {
	study, err := runCancelling(t, StageBatchGCD, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if study == nil || study.Report == nil {
		t.Fatal("cancelled run should return the partial study with its report")
	}
	// Everything before BatchGCD completed; BatchGCD itself is present
	// with the cancellation error.
	for _, name := range []string{StageSimulate, StageHarvest, StageDedup} {
		sr := stageReport(study.Report, name)
		if sr == nil {
			t.Fatalf("partial report missing completed stage %s", name)
		}
		if sr.Err != nil {
			t.Errorf("completed stage %s carries error %v", name, sr.Err)
		}
	}
	gcd := stageReport(study.Report, StageBatchGCD)
	if gcd == nil || gcd.Err == nil {
		t.Fatalf("partial report should include the failing stage: %+v", gcd)
	}
	if stageReport(study.Report, StageAnalyze) != nil {
		t.Error("stages after the failure must not appear in the report")
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Options{Scale: 0.02, KeyBits: 128}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestRunReportCoversAllStages(t *testing.T) {
	s := testStudy(t)
	if s.Report == nil {
		t.Fatal("study has no pipeline report")
	}
	want := []string{StageSimulate, StageHarvest, StageDedup, StageBatchGCD, StageFingerprint, StageAnalyze}
	if len(s.Report.Stages) != len(want) {
		t.Fatalf("report stages = %d, want %d", len(s.Report.Stages), len(want))
	}
	for i, name := range want {
		sr := s.Report.Stages[i]
		if sr.Name != name {
			t.Errorf("stage %d = %s, want %s", i, sr.Name, name)
		}
		if sr.Err != nil {
			t.Errorf("stage %s errored: %v", name, sr.Err)
		}
		if sr.Wall <= 0 {
			t.Errorf("stage %s has no wall time", name)
		}
	}
	// The dedup output feeds the batch GCD input.
	dedup, gcd := stageReport(s.Report, StageDedup), stageReport(s.Report, StageBatchGCD)
	if dedup.ItemsOut != gcd.ItemsIn {
		t.Errorf("dedup out %d != batchgcd in %d", dedup.ItemsOut, gcd.ItemsIn)
	}
	if gcd.ItemsOut == 0 {
		t.Error("batch GCD found nothing in a study with vulnerable lines")
	}
}
