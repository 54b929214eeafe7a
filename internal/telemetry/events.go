package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Event is one structured log record as captured by the flight recorder.
// Seq is the process-wide emission order: it increases monotonically
// across the whole EventLog, so readers can order a ring snapshot even
// when writers are racing the wraparound.
type Event struct {
	Seq   uint64
	Time  time.Time
	Level slog.Level
	Msg   string
	Attrs []slog.Attr
}

// Attr returns the string form of the named attribute, or "".
func (e Event) Attr(key string) string {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value.Resolve().String()
		}
	}
	return ""
}

// eventRing is the lock-free flight recorder: a fixed ring of atomic
// pointers with one atomic write cursor. A writer claims a sequence
// number and stores its event into slot (seq-1) % N; readers snapshot
// every slot and sort by Seq. Neither side ever takes a lock, so the
// recorder can sit on the serving hot path, and a reader racing a
// wrapping writer sees a consistent (if slightly torn) window — exactly
// the scrape semantics the metrics registry already has.
type eventRing struct {
	slots  []atomic.Pointer[Event]
	mask   uint64 // len(slots)-1; size is rounded up to a power of two
	cursor atomic.Uint64
}

func newEventRing(n int) *eventRing {
	size := 1
	for size < n {
		size <<= 1
	}
	return &eventRing{slots: make([]atomic.Pointer[Event], size), mask: uint64(size - 1)}
}

func (r *eventRing) store(ev *Event) {
	ev.Seq = r.cursor.Add(1)
	r.slots[(ev.Seq-1)&r.mask].Store(ev)
}

// snapshot returns the ring's current events ordered by Seq ascending.
func (r *eventRing) snapshot() []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if ev := r.slots[i].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// EventConfig tunes an EventLog.
type EventConfig struct {
	// Size is the flight-recorder capacity in events (default 1024,
	// minimum 16, rounded up to a power of two). The last Size events
	// are always available from Events() / /debug/events regardless of
	// the tee configuration.
	Size int
	// Level is the floor below which events are not recorded at all.
	// The zero value keeps everything (slog.LevelDebug) — a flight
	// recorder that drops debug events defeats its purpose — so a floor
	// of exactly slog.LevelInfo is not expressible; floor the tee
	// instead via TeeLevel.
	Level slog.Level
	// Tee, when non-nil, additionally writes events at TeeLevel and
	// above to this writer (normally os.Stderr).
	Tee io.Writer
	// TeeFormat selects the tee encoding: "text" (default) or "json".
	TeeFormat string
	// TeeLevel is the tee's level floor (default slog.LevelInfo).
	TeeLevel slog.Level
	// Clock overrides the event timestamp source (tests inject a fixed
	// clock so golden output never flakes). Default time.Now.
	Clock func() time.Time
}

// EventLog is the third observability pillar next to the metrics
// registry and the span tracer: a structured event log on log/slog
// whose primary sink is an in-memory lock-free flight recorder (the
// last N events are always inspectable, live via /debug/events or post
// mortem via a debug bundle), with an optional level-filtered tee to
// stderr.
//
// Like every other handle in this package, a nil *EventLog is valid and
// all its methods are no-ops, so instrumentation call sites emit
// unconditionally and a disabled event log costs one predicted branch.
type EventLog struct {
	ring     *eventRing
	floor    slog.Level
	tee      slog.Handler
	teeFloor slog.Level
	clock    func() time.Time
}

// NewEventLog builds an event log from cfg.
func NewEventLog(cfg EventConfig) *EventLog {
	if cfg.Size <= 0 {
		cfg.Size = 1024
	}
	if cfg.Size < 16 {
		cfg.Size = 16
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Level == 0 {
		cfg.Level = slog.LevelDebug
	}
	l := &EventLog{
		ring:     newEventRing(cfg.Size),
		floor:    cfg.Level,
		teeFloor: cfg.TeeLevel,
		clock:    cfg.Clock,
	}
	if cfg.Tee != nil {
		opts := &slog.HandlerOptions{Level: cfg.TeeLevel}
		if cfg.TeeFormat == "json" {
			l.tee = slog.NewJSONHandler(cfg.Tee, opts)
		} else {
			l.tee = slog.NewTextHandler(cfg.Tee, opts)
		}
	}
	return l
}

// ParseLevel maps a CLI level name (debug, info, warn, error) to its
// slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("telemetry: unknown log level %q (want debug, info, warn or error)", s)
}

// Emit records one event (nil-safe). The request ID riding ctx, if any,
// is attached as a request_id attribute, which is what ties a flight-
// recorder window to one check's journey through the serving path.
func (l *EventLog) Emit(ctx context.Context, level slog.Level, msg string, attrs ...slog.Attr) {
	if l == nil || level < l.floor {
		return
	}
	l.record(ctx, level, msg, attrs)
}

// Debug, Info, Warn and Error are level-fixed forms of Emit (nil-safe).
func (l *EventLog) Debug(ctx context.Context, msg string, attrs ...slog.Attr) {
	l.Emit(ctx, slog.LevelDebug, msg, attrs...)
}

func (l *EventLog) Info(ctx context.Context, msg string, attrs ...slog.Attr) {
	l.Emit(ctx, slog.LevelInfo, msg, attrs...)
}

func (l *EventLog) Warn(ctx context.Context, msg string, attrs ...slog.Attr) {
	l.Emit(ctx, slog.LevelWarn, msg, attrs...)
}

func (l *EventLog) Error(ctx context.Context, msg string, attrs ...slog.Attr) {
	l.Emit(ctx, slog.LevelError, msg, attrs...)
}

// eventAlloc packs an Event together with inline attribute storage so
// the recorder hot path costs a single heap allocation for typical
// attribute counts; larger attribute sets spill into one extra slice.
// Because record only reads the caller's attrs (it copies rather than
// retains them), the variadic slice at an Emit call site never escapes.
type eventAlloc struct {
	ev    Event
	attrs [5]slog.Attr
}

// record is the shared sink behind Emit and the slog handler. attrs is
// owned by the caller's frame (variadic or freshly assembled) and is
// copied, never retained.
func (l *EventLog) record(ctx context.Context, level slog.Level, msg string, attrs []slog.Attr) {
	ea := &eventAlloc{ev: Event{Time: l.clock(), Level: level, Msg: msg}}
	id := RequestIDFrom(ctx)
	if id != "" && hasAttr(attrs, "request_id") {
		id = ""
	}
	total := len(attrs)
	if id != "" {
		total++
	}
	if total <= len(ea.attrs) {
		n := copy(ea.attrs[:], attrs)
		if id != "" {
			ea.attrs[n] = slog.String("request_id", id)
			n++
		}
		ea.ev.Attrs = ea.attrs[:n:n]
	} else {
		out := make([]slog.Attr, 0, total)
		out = append(out, attrs...)
		if id != "" {
			out = append(out, slog.String("request_id", id))
		}
		ea.ev.Attrs = out
	}
	l.ring.store(&ea.ev)
	if l.tee != nil && level >= l.teeFloor {
		rec := slog.NewRecord(ea.ev.Time, level, msg, 0)
		rec.AddAttrs(ea.ev.Attrs...)
		_ = l.tee.Handle(ctx, rec)
	}
}

func hasAttr(attrs []slog.Attr, key string) bool {
	for _, a := range attrs {
		if a.Key == key {
			return true
		}
	}
	return false
}

// Events returns the flight recorder's current window, oldest first
// (nil-safe).
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	return l.ring.snapshot()
}

// EventsFilter returns the recorder window filtered to events at or
// above minLevel, matching requestID when non-empty, keeping only the
// newest n when n > 0 (nil-safe).
func (l *EventLog) EventsFilter(minLevel slog.Level, requestID string, n int) []Event {
	evs := l.Events()
	out := evs[:0]
	for _, ev := range evs {
		if ev.Level < minLevel {
			continue
		}
		if requestID != "" && ev.Attr("request_id") != requestID {
			continue
		}
		out = append(out, ev)
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// WriteEventJSON renders one event as a single JSON object with a
// stable key order: seq, time, level, msg, then the attributes in
// emission order. The same rendering serves /debug/events, the debug
// bundle and the golden tests.
func WriteEventJSON(w io.Writer, ev Event) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p(`{"seq":%d,"time":%q,"level":%q,"msg":`, ev.Seq, ev.Time.UTC().Format(time.RFC3339Nano), ev.Level.String())
	p("%s", jsonString(ev.Msg))
	for _, a := range ev.Attrs {
		p(",%s:%s", jsonString(a.Key), jsonValue(a.Value))
	}
	p("}")
	return err
}

// WriteEventsJSON renders events as a JSON array, one event per line.
func WriteEventsJSON(w io.Writer, evs []Event) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range evs {
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if err := WriteEventJSON(w, ev); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}

func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return strconv.Quote(s)
	}
	return string(b)
}

// jsonValue renders a slog.Value deterministically: durations as their
// String() form, times as RFC3339Nano, everything else through
// encoding/json (falling back to the string form on marshal failure).
func jsonValue(v slog.Value) string {
	v = v.Resolve()
	switch v.Kind() {
	case slog.KindDuration:
		return jsonString(v.Duration().String())
	case slog.KindTime:
		return jsonString(v.Time().UTC().Format(time.RFC3339Nano))
	}
	b, err := json.Marshal(v.Any())
	if err != nil {
		return jsonString(v.String())
	}
	return string(b)
}
