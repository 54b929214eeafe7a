package zscan

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/scanstore"
)

// ingestSink is a test double for POST /v1/ingest: it records batches
// and can fail the first N requests with a configurable status and
// Retry-After header.
type ingestSink struct {
	mu         sync.Mutex
	batches    [][]string
	failN      int
	failCode   int
	retryAfter string
}

func (s *ingestSink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failN > 0 {
		s.failN--
		if s.retryAfter != "" {
			w.Header().Set("Retry-After", s.retryAfter)
		}
		http.Error(w, "injected failure", s.failCode)
		return
	}
	var req struct {
		ModuliHex []string `json:"moduli_hex"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.batches = append(s.batches, req.ModuliHex)
	fmt.Fprintf(w, `{"delta_moduli":%d,"duplicates":0,"new_factored":1,"refactored":0}`, len(req.ModuliHex))
}

func (s *ingestSink) total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.batches {
		n += len(b)
	}
	return n
}

func (s *ingestSink) batchCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.batches)
}

func TestBridgeBatchesAndFlushes(t *testing.T) {
	sink := &ingestSink{}
	srv := httptest.NewServer(sink)
	defer srv.Close()
	b, err := NewBridge(BridgeOptions{URL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 2*bridgeBatch + 1
	for i := 0; i < n; i++ {
		if err := b.Offer(ctx, fmt.Sprintf("%04x", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	if got := sink.total(); got != n {
		t.Errorf("server received %d moduli, want %d", got, n)
	}
	if got := sink.batchCount(); got != 3 {
		t.Errorf("server received %d batches, want 3 (two full, then the last key at Close)", got)
	}
	st := b.Stats()
	if st.Delivered != n || st.Dropped != 0 {
		t.Errorf("stats = %+v, want %d delivered / 0 dropped", st, n)
	}
	if st.Factored != 3 {
		t.Errorf("factored = %d, want 3 (one per acknowledged batch)", st.Factored)
	}
}

func TestBridgeRetriesTransientFailures(t *testing.T) {
	sink := &ingestSink{failN: 2, failCode: http.StatusInternalServerError}
	srv := httptest.NewServer(sink)
	defer srv.Close()
	b, err := NewBridge(BridgeOptions{URL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := b.Offer(ctx, fmt.Sprintf("%02x", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	st := b.Stats()
	if st.Delivered != 3 {
		t.Errorf("delivered = %d, want 3 after retries", st.Delivered)
	}
	if st.Retries < 2 {
		t.Errorf("retries = %d, want >= 2", st.Retries)
	}
	if sink.total() != 3 {
		t.Errorf("server received %d moduli, want 3", sink.total())
	}
}

func TestBridgeDropsPermanentRejections(t *testing.T) {
	sink := &ingestSink{failN: 1 << 30, failCode: http.StatusBadRequest}
	srv := httptest.NewServer(sink)
	defer srv.Close()
	b, err := NewBridge(BridgeOptions{URL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Offer(context.Background(), "ab"); err != nil {
		t.Fatal(err)
	}
	b.Close()
	st := b.Stats()
	if st.Dropped != 1 || st.FailedBatches != 1 {
		t.Errorf("stats = %+v, want 1 dropped / 1 failed batch", st)
	}
	if st.Retries != 0 {
		t.Errorf("retries = %d: a 4xx must not be retried", st.Retries)
	}
}

func TestBridgeRetriesRateLimit(t *testing.T) {
	sink := &ingestSink{failN: 1, failCode: http.StatusTooManyRequests}
	srv := httptest.NewServer(sink)
	defer srv.Close()
	b, err := NewBridge(BridgeOptions{URL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Offer(context.Background(), "cd"); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if st := b.Stats(); st.Delivered != 1 {
		t.Errorf("delivered = %d, want 1 after the 429 retry", st.Delivered)
	}
}

// TestBridgeCapsRetryAfter: a 429 asking for an hour is honoured only up
// to the backoff ceiling, so one answer cannot park delivery, Offer and
// Close for as long as the server says.
func TestBridgeCapsRetryAfter(t *testing.T) {
	sink := &ingestSink{failN: 1, failCode: http.StatusTooManyRequests, retryAfter: "3600"}
	srv := httptest.NewServer(sink)
	defer srv.Close()
	b, err := NewBridge(BridgeOptions{URL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Offer(context.Background(), "ef"); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close still waiting after 10s on a Retry-After of 3600")
	}
	if st := b.Stats(); st.Delivered != 1 || st.Retries != 1 {
		t.Errorf("stats = %+v, want 1 delivered after 1 retry", st)
	}
}

func TestBridgeValidation(t *testing.T) {
	if _, err := NewBridge(BridgeOptions{}); err == nil {
		t.Error("missing URL must be rejected")
	}
}

// TestEngineFeedsBridge wires engine → bridge → mock ingest endpoint:
// every novel modulus the harvest sees must be delivered.
func TestEngineFeedsBridge(t *testing.T) {
	sink := &ingestSink{}
	srv := httptest.NewServer(sink)
	defer srv.Close()
	bridge, err := NewBridge(BridgeOptions{URL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	fleet := testFleet(t, FleetOptions{Space: 2048, Devices: 20, Vulnerable: 0.5, Seed: 13})
	store := scanstore.New()
	eng, err := New(Options{
		Space: 2048, Seed: 13, Prober: fleet, Store: store, Ingest: bridge,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	bridge.Close()
	st := bridge.Stats()
	if rep.NovelModuli == 0 {
		t.Fatal("sweep found no novel moduli")
	}
	if st.Offered != uint64(rep.NovelModuli) {
		t.Errorf("offered = %d, want %d (one per novel modulus)", st.Offered, rep.NovelModuli)
	}
	if st.Delivered != st.Offered {
		t.Errorf("delivered = %d, offered = %d: bridge lost keys", st.Delivered, st.Offered)
	}
	if sink.total() != rep.NovelModuli {
		t.Errorf("server received %d moduli, want %d", sink.total(), rep.NovelModuli)
	}
}
