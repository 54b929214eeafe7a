package telemetry

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Diagnostics bundles the observability pillars one process serves on
// its private diagnostics mux: the metrics registry, the structured
// event log (flight recorder), the request tracker and the span tracer.
// Any field may be nil; the corresponding endpoints degrade to empty
// documents and the bundle omits the section.
type Diagnostics struct {
	Registry *Registry
	Events   *EventLog
	Requests *RequestTracker
	Tracer   *Tracer
	// Info is free-form build/config identification (binary name,
	// flags, corpus path, ...) included in /debug/bundle's meta.json.
	Info map[string]string
}

// Mux builds the diagnostics handler set:
//
//	/metrics         Prometheus text exposition
//	/debug/vars      expvar-style JSON snapshot
//	/debug/pprof     the standard pprof index, profile, trace, symbol
//	/debug/events    flight-recorder window (?level=, ?request_id=, ?n=)
//	/debug/requests  in-flight, recent and slowest tracked requests
//	/debug/bundle    gzipped tar postmortem bundle (see WriteBundle)
//
// Everything is mounted on this private mux, not http.DefaultServeMux,
// so importing this package never leaks profiling endpoints into an
// application's own server.
func (d *Diagnostics) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		d.Registry.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		d.Registry.Snapshot().WriteVars(w)
	})
	mux.HandleFunc("/debug/events", d.handleEvents)
	mux.HandleFunc("/debug/requests", d.handleRequests)
	mux.HandleFunc("/debug/bundle", d.handleBundle)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleEvents serves the flight-recorder window as a JSON array,
// oldest first. Query parameters: level (debug|info|warn|error) floors
// the severity, request_id keeps only one request's events, n keeps the
// newest n (default 256, max the ring size).
func (d *Diagnostics) handleEvents(w http.ResponseWriter, r *http.Request) {
	level := slog.LevelDebug
	if q := r.URL.Query().Get("level"); q != "" {
		var err error
		if level, err = ParseLevel(q); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	n := 256
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, "telemetry: n must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	evs := d.Events.EventsFilter(level, r.URL.Query().Get("request_id"), n)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	WriteEventsJSON(w, evs)
}

// handleRequests serves the request tracker state as JSON.
func (d *Diagnostics) handleRequests(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	writeJSONIndent(w, d.Requests.State())
}

// handleBundle streams a postmortem bundle.
func (d *Diagnostics) handleBundle(w http.ResponseWriter, r *http.Request) {
	name := fmt.Sprintf("debug-bundle-%s.tar.gz", time.Now().UTC().Format("20060102-150405"))
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition", `attachment; filename="`+name+`"`)
	if err := d.WriteBundle(w); err != nil {
		// Headers are gone; the truncated body will fail the client's
		// gzip check, which is the honest signal.
		d.Events.Error(r.Context(), "debug bundle failed", slog.String("error", err.Error()))
	}
}

func writeJSONIndent(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Server is a running diagnostics HTTP server.
type Server struct {
	// Addr is the bound address, with the real port when the listen
	// address requested :0.
	Addr string
	srv  *http.Server
	ln   net.Listener
}

// ListenAndServe starts a metrics-only diagnostics server on addr
// (":8080", "127.0.0.1:0", ...). See Diagnostics.ListenAndServe for the
// full-pillar form.
func ListenAndServe(addr string, reg *Registry) (*Server, error) {
	return (&Diagnostics{Registry: reg}).ListenAndServe(addr)
}

// ListenAndServe starts the diagnostics server on addr and returns once
// the listener is bound; requests are served on a background goroutine.
// Close releases it.
func (d *Diagnostics) ListenAndServe(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	// The write timeout must outlast /debug/pprof's 30s default profile
	// window; read/idle just need to evict stuck or abandoned scrapers.
	srv := &http.Server{
		Handler:           d.Mux(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	s := &Server{Addr: ln.Addr().String(), srv: srv, ln: ln}
	go srv.Serve(ln)
	return s, nil
}

// Close stops the server and its listener.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
