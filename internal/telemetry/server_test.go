package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func fetch(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestDiagnosticsRoundTrip drives the full mux over real HTTP: /metrics
// exposition, /debug/vars JSON, and the pprof index.
func TestDiagnosticsRoundTrip(t *testing.T) {
	reg := New()
	reg.Counter("requests_total").Add(12)
	reg.Gauge("inflight").Set(3)
	reg.Histogram("lat_seconds", []float64{0.1, 1}).Observe(0.05)

	ts := httptest.NewServer((&Diagnostics{Registry: reg}).Mux())
	defer ts.Close()

	code, body := fetch(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"# TYPE requests_total counter",
		"requests_total 12",
		"inflight 3",
		`lat_seconds_bucket{le="0.1"} 1`,
		"lat_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	// A scrape after more traffic sees the new values (live, not cached).
	reg.Counter("requests_total").Add(5)
	_, body = fetch(t, ts.URL+"/metrics")
	if !strings.Contains(body, "requests_total 17") {
		t.Errorf("second scrape should see 17:\n%s", body)
	}

	code, body = fetch(t, ts.URL+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if vars["requests_total"] != float64(17) {
		t.Errorf("vars requests_total = %v, want 17", vars["requests_total"])
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("vars missing memstats")
	}

	code, body = fetch(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index looks wrong:\n%.200s", body)
	}
}

// TestDebugEndpoints drives the observability additions: the event
// window with its filters, the request ledger, and the bundle download.
func TestDebugEndpoints(t *testing.T) {
	reg := New()
	events := NewEventLog(EventConfig{Clock: fixedClock()})
	requests := NewRequestTracker(8, 4)
	d := &Diagnostics{Registry: reg, Events: events, Requests: requests}

	ctx := ContextWithRequestID(context.Background(), "req-a")
	events.Info(ctx, "check served")
	events.Warn(context.Background(), "check shed")

	a := requests.Start("check", "req-a")
	a.Finish("clean")

	ts := httptest.NewServer(d.Mux())
	defer ts.Close()

	code, body := fetch(t, ts.URL+"/debug/events")
	if code != http.StatusOK {
		t.Fatalf("/debug/events status = %d", code)
	}
	var evs []map[string]any
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/debug/events not JSON: %v\n%s", err, body)
	}
	if len(evs) != 2 {
		t.Fatalf("/debug/events returned %d events, want 2", len(evs))
	}

	// level filter keeps only the warn.
	_, body = fetch(t, ts.URL+"/debug/events?level=warn")
	evs = nil
	json.Unmarshal([]byte(body), &evs)
	if len(evs) != 1 || evs[0]["msg"] != "check shed" {
		t.Fatalf("level=warn gave %v", evs)
	}

	// request_id filter keeps only the correlated event.
	_, body = fetch(t, ts.URL+"/debug/events?request_id=req-a")
	evs = nil
	json.Unmarshal([]byte(body), &evs)
	if len(evs) != 1 || evs[0]["msg"] != "check served" {
		t.Fatalf("request_id filter gave %v", evs)
	}

	// Bad parameters are 400s.
	if code, _ = fetch(t, ts.URL+"/debug/events?level=loud"); code != http.StatusBadRequest {
		t.Fatalf("level=loud status = %d, want 400", code)
	}
	if code, _ = fetch(t, ts.URL+"/debug/events?n=zero"); code != http.StatusBadRequest {
		t.Fatalf("n=zero status = %d, want 400", code)
	}

	code, body = fetch(t, ts.URL+"/debug/requests")
	if code != http.StatusOK {
		t.Fatalf("/debug/requests status = %d", code)
	}
	var st TrackerState
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/debug/requests not JSON: %v", err)
	}
	if len(st.Recent) != 1 || st.Recent[0].RequestID != "req-a" {
		t.Fatalf("/debug/requests recent = %+v", st.Recent)
	}

	resp, err := http.Get(ts.URL + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/gzip" {
		t.Fatalf("/debug/bundle Content-Type = %q", got)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	files := readBundle(t, raw)
	for _, want := range []string{"meta.json", "metrics.prom", "events.json", "requests.json"} {
		if _, ok := files[want]; !ok {
			t.Errorf("/debug/bundle missing %s", want)
		}
	}
}

func TestListenAndServeBindsEphemeralPort(t *testing.T) {
	reg := New()
	reg.Counter("x").Inc()
	srv, err := ListenAndServe("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if strings.HasSuffix(srv.Addr, ":0") {
		t.Fatalf("Addr %q still has port 0", srv.Addr)
	}
	code, body := fetch(t, "http://"+srv.Addr+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "x 1") {
		t.Errorf("scrape = %d %q", code, body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr + "/metrics"); err == nil {
		t.Error("server should refuse connections after Close")
	}
}
