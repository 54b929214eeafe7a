package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock returns a deterministic, strictly advancing clock for
// golden tests.
func fixedClock() func() time.Time {
	base := time.Date(2016, 8, 10, 12, 0, 0, 0, time.UTC) // the paper's scan era
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	ctx := context.Background()
	// None of these may panic.
	l.Emit(ctx, slog.LevelInfo, "msg")
	l.Debug(ctx, "msg")
	l.Info(ctx, "msg")
	l.Warn(ctx, "msg")
	l.Error(ctx, "msg")
	if evs := l.Events(); evs != nil {
		t.Fatalf("nil EventLog Events() = %v, want nil", evs)
	}
	if evs := l.EventsFilter(slog.LevelDebug, "", 0); len(evs) != 0 {
		t.Fatalf("nil EventLog EventsFilter() = %v, want empty", evs)
	}
}

func TestEventLogBasic(t *testing.T) {
	l := NewEventLog(EventConfig{Clock: fixedClock()})
	ctx := context.Background()
	l.Info(ctx, "first", slog.String("k", "v"))
	l.Warn(ctx, "second", slog.Int("n", 7))

	evs := l.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Msg != "first" || evs[1].Msg != "second" {
		t.Fatalf("event order wrong: %q then %q", evs[0].Msg, evs[1].Msg)
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("sequence numbers %d, %d; want 1, 2", evs[0].Seq, evs[1].Seq)
	}
	if got := evs[0].Attr("k"); got != "v" {
		t.Fatalf("Attr(k) = %q, want v", got)
	}
	if got := evs[0].Attr("missing"); got != "" {
		t.Fatalf("Attr(missing) = %q, want empty", got)
	}
}

func TestEventLogLevelFloor(t *testing.T) {
	l := NewEventLog(EventConfig{Level: slog.LevelWarn, Clock: fixedClock()})
	ctx := context.Background()
	l.Debug(ctx, "dropped")
	l.Info(ctx, "dropped too")
	l.Warn(ctx, "kept")
	l.Error(ctx, "kept too")
	evs := l.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2 (floor warn)", len(evs))
	}
	if evs[0].Msg != "kept" || evs[1].Msg != "kept too" {
		t.Fatalf("wrong events survived the floor: %+v", evs)
	}
}

func TestEventLogRequestIDFromContext(t *testing.T) {
	l := NewEventLog(EventConfig{Clock: fixedClock()})
	ctx := ContextWithRequestID(context.Background(), "req-42")
	l.Info(ctx, "tagged")
	l.Info(context.Background(), "untagged")

	evs := l.Events()
	if got := evs[0].Attr("request_id"); got != "req-42" {
		t.Fatalf("request_id = %q, want req-42", got)
	}
	if got := evs[1].Attr("request_id"); got != "" {
		t.Fatalf("untagged event has request_id %q", got)
	}

	// EventsFilter by request ID.
	filtered := l.EventsFilter(slog.LevelDebug, "req-42", 0)
	if len(filtered) != 1 || filtered[0].Msg != "tagged" {
		t.Fatalf("EventsFilter(request_id) = %+v, want the tagged event only", filtered)
	}
}

func TestEventLogRingWraparound(t *testing.T) {
	// Size below the 16 floor is clamped up to 16.
	l := NewEventLog(EventConfig{Size: 1, Clock: fixedClock()})
	ctx := context.Background()
	const total = 100
	for i := 0; i < total; i++ {
		l.Info(ctx, fmt.Sprintf("event-%d", i))
	}
	evs := l.Events()
	if len(evs) != 16 {
		t.Fatalf("ring holds %d events, want 16 (clamped size)", len(evs))
	}
	// The window must be the newest 16, in strictly increasing Seq order.
	for i, ev := range evs {
		wantSeq := uint64(total - 16 + i + 1)
		if ev.Seq != wantSeq {
			t.Fatalf("evs[%d].Seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		wantMsg := fmt.Sprintf("event-%d", total-16+i)
		if ev.Msg != wantMsg {
			t.Fatalf("evs[%d].Msg = %q, want %q", i, ev.Msg, wantMsg)
		}
	}
}

func TestEventLogConcurrentEmittersAndReaders(t *testing.T) {
	// Run with -race: emitters race each other across the wraparound
	// while readers snapshot continuously. The invariant is that every
	// snapshot is ordered by Seq with no duplicates.
	l := NewEventLog(EventConfig{Size: 64})
	ctx := context.Background()
	const writers = 8
	const perWriter = 500

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := l.Events()
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq <= evs[i-1].Seq {
						t.Errorf("snapshot out of order: seq %d then %d", evs[i-1].Seq, evs[i].Seq)
						return
					}
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				l.Info(ctx, "concurrent", slog.Int("writer", w), slog.Int("i", i))
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	evs := l.Events()
	if len(evs) != 64 {
		t.Fatalf("final window %d events, want 64", len(evs))
	}
	if last := evs[len(evs)-1].Seq; last != writers*perWriter {
		t.Fatalf("last Seq = %d, want %d", last, writers*perWriter)
	}
}

func TestEventLogTee(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(EventConfig{
		Tee:       &buf,
		TeeFormat: "json",
		TeeLevel:  slog.LevelWarn,
		Clock:     fixedClock(),
	})
	ctx := context.Background()
	l.Info(ctx, "below tee floor")
	l.Warn(ctx, "teed", slog.String("k", "v"))

	// Both events recorded...
	if evs := l.Events(); len(evs) != 2 {
		t.Fatalf("recorded %d events, want 2", len(evs))
	}
	// ...but only the warn reached the tee.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("tee got %d lines, want 1: %q", len(lines), buf.String())
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &doc); err != nil {
		t.Fatalf("tee line is not JSON: %v", err)
	}
	if doc["msg"] != "teed" || doc["k"] != "v" {
		t.Fatalf("tee JSON = %v", doc)
	}
}

func TestWriteEventJSONGolden(t *testing.T) {
	l := NewEventLog(EventConfig{Clock: fixedClock()})
	ctx := ContextWithRequestID(context.Background(), "abcd1234-000001")
	l.Info(ctx, "check served",
		slog.String("verdict", "factored"),
		slog.Int("shard", 3),
		slog.Bool("cached", false),
		slog.Duration("latency", 1500*time.Microsecond),
	)

	var buf bytes.Buffer
	if err := WriteEventJSON(&buf, l.Events()[0]); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":1,"time":"2016-08-10T12:00:00.001Z","level":"INFO","msg":"check served",` +
		`"verdict":"factored","shard":3,"cached":false,"latency":"1.5ms","request_id":"abcd1234-000001"}`
	if got := buf.String(); got != want {
		t.Fatalf("golden mismatch:\n got %s\nwant %s", got, want)
	}

	// The array form must be valid JSON end to end.
	buf.Reset()
	l.Warn(ctx, "check shed", slog.String("cause", "queue"))
	if err := WriteEventsJSON(&buf, l.Events()); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("WriteEventsJSON output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(arr) != 2 {
		t.Fatalf("array has %d events, want 2", len(arr))
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug":   slog.LevelDebug,
		"info":    slog.LevelInfo,
		"":        slog.LevelInfo,
		"warn":    slog.LevelWarn,
		"warning": slog.LevelWarn,
		"error":   slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) accepted, want error")
	}
}

// BenchmarkEventEmit measures the flight-recorder hot path: one Info
// with two attrs into the ring, no tee. The budget is ~200ns/event so
// the recorder can sit on the serving path; the dominant term is the
// time.Now call, so slow-clock VMs read higher.
func BenchmarkEventEmit(b *testing.B) {
	l := NewEventLog(EventConfig{Size: 1024})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Info(ctx, "check served", slog.String("verdict", "clean"), slog.Int("shard", 1))
	}
}

// BenchmarkNilEventEmit measures the disabled path: a nil *EventLog
// must cost roughly one branch.
func BenchmarkNilEventEmit(b *testing.B) {
	var l *EventLog
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Info(ctx, "check served", slog.String("verdict", "clean"), slog.Int("shard", 1))
	}
}
