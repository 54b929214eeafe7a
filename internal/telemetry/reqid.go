package telemetry

import (
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync/atomic"

	"context"
)

// Request correlation: every request entering the serving path gets an
// ID — accepted from the client (X-Request-Id or a W3C traceparent
// trace-id) or minted here — that rides the context through check and
// ingest handlers, cache decisions, shed paths and kernel job
// submission, is echoed on every HTTP response, and tags every event
// the request emits. It is the join key between a client's record of a
// failed request, a /debug/events window and a postmortem bundle.

// reqIDKey carries the request ID through a context.
type reqIDKey struct{}

// ContextWithRequestID returns a context carrying the request ID.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestIDFrom returns the context's request ID, or "".
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// reqPrefix is a per-process random prefix so IDs minted by different
// replicas never collide; reqCounter makes them unique within the
// process without a syscall per mint.
var (
	reqPrefix  = mintPrefix()
	reqCounter atomic.Uint64
)

func mintPrefix() string {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Degraded but functional: uniqueness within the process still
		// holds via the counter.
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

// MintRequestID issues a fresh process-unique request ID.
func MintRequestID() string {
	return fmt.Sprintf("%s-%06x", reqPrefix, reqCounter.Add(1))
}

// maxRequestIDLen bounds an accepted inbound ID so a hostile client
// cannot stuff kilobytes into every event the request emits.
const maxRequestIDLen = 64

// validRequestID accepts IDs of URL- and log-safe characters only;
// anything else (or empty, or oversized) is replaced by a minted ID.
func validRequestID(s string) bool {
	if s == "" || len(s) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == ':':
		default:
			return false
		}
	}
	return true
}

// HTTPRequestID resolves the correlation ID for an inbound HTTP
// request: a valid X-Request-Id header wins, then the trace-id of a
// well-formed W3C traceparent header, else a freshly minted ID.
// inbound reports whether the caller supplied it.
func HTTPRequestID(r *http.Request) (id string, inbound bool) {
	if v := r.Header.Get("X-Request-Id"); validRequestID(v) {
		return v, true
	}
	if tid := traceparentTraceID(r.Header.Get("traceparent")); tid != "" {
		return tid, true
	}
	return MintRequestID(), false
}

// WithRequestID wraps a handler with request correlation: it resolves
// the request's ID (HTTPRequestID), threads it through the context and
// echoes it as X-Request-Id before h runs, so every response of a
// wrapped route — 200s, sheds, rate limits and malformed bodies alike —
// carries it.
func WithRequestID(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, _ := HTTPRequestID(r)
		w.Header().Set("X-Request-Id", id)
		h(w, r.WithContext(ContextWithRequestID(r.Context(), id)))
	}
}

// traceparentTraceID extracts the 32-hex-digit trace-id from a W3C
// traceparent value ("00-<trace-id>-<parent-id>-<flags>"), or "".
func traceparentTraceID(v string) string {
	// version(2) - traceid(32) - parentid(16) - flags(2)
	if len(v) < 2+1+32+1+16+1+2 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return ""
	}
	tid := v[3:35]
	zero := true
	for i := 0; i < len(tid); i++ {
		c := tid[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return ""
		}
		if c != '0' {
			zero = false
		}
	}
	if zero {
		return ""
	}
	return tid
}

// eventsKey carries an EventLog through a context, so layers below the
// service boundary (the kernel engine above all) can emit correlated
// events without threading a handle through every signature.
type eventsKey struct{}

// ContextWithEvents returns a context carrying the event log.
func ContextWithEvents(ctx context.Context, l *EventLog) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, eventsKey{}, l)
}

// EventsFrom returns the context's event log, or nil (which is a valid
// no-op EventLog, so callers chain unconditionally).
func EventsFrom(ctx context.Context) *EventLog {
	if ctx == nil {
		return nil
	}
	l, _ := ctx.Value(eventsKey{}).(*EventLog)
	return l
}
