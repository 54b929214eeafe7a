package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// TestRecordCountsEveryLostVerdict: e2e's TestCluster asserts "zero lost
// verdicts" from errors == 0, so every response without a verdict must
// land in errs — a 200 whose body was cut short or says nothing
// included, not only the non-200s.
func TestRecordCountsEveryLostVerdict(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-Id", r.URL.Path[1:])
		switch r.URL.Path {
		case "/torn": // a replica killed mid-response: 200, then half a body
			w.Header().Set("Content-Length", "64")
			io.WriteString(w, `{"status":"fact`)
		case "/empty":
			io.WriteString(w, `{}`)
		case "/busy":
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			io.WriteString(w, `{"status":"clean"}`)
		}
	}))
	defer srv.Close()

	wk := &worker{verdicts: map[string]int{}, codes: map[int]int{}}
	for _, path := range []string{"/ok", "/torn", "/empty", "/busy"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		wk.record(resp, time.Millisecond)
	}
	if want := map[string]int{"clean": 1}; !reflect.DeepEqual(wk.verdicts, want) || len(wk.lat) != 1 {
		t.Errorf("verdicts %v with %d latencies, want %v with 1", wk.verdicts, len(wk.lat), want)
	}
	if wk.errs != 3 {
		t.Errorf("errs = %d, want 3 (torn 200, empty 200, 503)", wk.errs)
	}
	if want := []string{"200:torn", "200:empty", "503:busy"}; !reflect.DeepEqual(wk.dropped, want) {
		t.Errorf("dropped = %v, want %v", wk.dropped, want)
	}
}
