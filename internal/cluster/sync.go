package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/factorable/weakkeys/internal/keycheck"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// Journal is a replica's ingest log: every ingest that published a new
// snapshot appends its novel moduli (hex), and peers pull the tail with
// /v1/sync?since=<generation>. It is one flat, append-only key list; a
// generation is an offset into it from a base each process mints at
// random in [2⁶², 2⁶³) on first use. Each peer tracks its position in
// each origin's journal independently, so propagation needs no
// coordination: a full mesh of since-pulls converges because
// re-delivered moduli dedupe to no-ops at ingest.
//
// The random base is what makes an origin's restart safe: a puller's
// position from the past life falls below the new base (served from the
// start) or past the new head (rewound to 0), unless it lands inside the
// new life's range — odds of about keys/2⁶².
type Journal struct {
	mu   sync.Mutex
	base uint64 // generation of keys[0]; 0 until first use
	keys []string
}

// maxSyncKeys caps one /v1/sync response; the client loops on the
// returned generation for the rest.
const maxSyncKeys = 1024

// head returns the generation past the last key, minting the base on
// first use. Callers hold mu.
func (j *Journal) head() uint64 {
	if j.base == 0 {
		j.base = 1<<62 + rand.Uint64N(1<<62)
	}
	return j.base + uint64(len(j.keys))
}

// Append records one ingest's novel moduli (hex) and returns the new
// generation.
func (j *Journal) Append(keys []string) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.keys = append(j.keys, keys...)
	return j.head()
}

// Page returns up to maxSyncKeys keys appended after generation g,
// oldest first, the generation through which the page is complete (the
// puller's next since), and whether the journal holds more beyond it. A
// generation below the base — a fresh puller's 0, or a past life's
// position — is served from the start; one past the head is from the
// origin's past life and gets an empty page rewinding the puller to 0,
// so its next pull reads this journal from the start.
func (j *Journal) Page(g uint64) (gen uint64, keys []string, more bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	head := j.head()
	if g > head {
		return 0, nil, false
	}
	from := max(g, j.base) - j.base
	to := min(from+maxSyncKeys, uint64(len(j.keys)))
	return j.base + to, append([]string(nil), j.keys[from:to]...), j.base+to < head
}

// syncResponse is the GET /v1/sync wire document: one page of the
// origin's journal tail.
type syncResponse struct {
	// Generation is the journal generation through which ModuliHex is
	// complete; the puller stores it as its next since.
	Generation uint64 `json:"generation"`
	// ModuliHex is the page of novel moduli ingested after the
	// requested since, oldest first, at most maxSyncKeys of them.
	ModuliHex []string `json:"moduli_hex"`
	// More reports that the journal extends past Generation: the puller
	// should loop with since=Generation until it drains the tail.
	More bool `json:"more,omitempty"`
}

// Handler serves GET /v1/sync?since=<gen> over the journal, one bounded
// page per request.
func (j *Journal) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "cluster: GET only", http.StatusMethodNotAllowed)
			return
		}
		var since uint64
		if q := r.URL.Query().Get("since"); q != "" {
			v, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				http.Error(w, "cluster: since must be a non-negative integer", http.StatusBadRequest)
				return
			}
			since = v
		}
		gen, keys, more := j.Page(since)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		json.NewEncoder(w).Encode(syncResponse{Generation: gen, ModuliHex: keys, More: more})
	}
}

// syncTimeout bounds one pull request.
const syncTimeout = 5 * time.Second

// Syncer is the pull side of snapshot sync: a background loop that
// periodically asks every peer's journal for moduli ingested since the
// last pull and folds them into the local service. The local snapshot's
// shard ownership filters what actually lands — a replica pulls the
// whole feed but indexes only the moduli homed in its owned shards —
// and moduli the replica already has dedupe away, so the mesh is safe
// to over-deliver on.
type Syncer struct {
	// Self is this replica's placement name (skipped if it appears in
	// Peers).
	Self string
	// Peers are the other replicas' advertised addresses.
	Peers []string
	// Service receives the pulled deltas.
	Service *keycheck.Service
	// Interval between pull rounds (default 1s).
	Interval time.Duration
	// Metrics/Events receive sync telemetry (nil disables).
	Metrics *telemetry.Registry
	// Events receives sync events (nil disables).
	Events *telemetry.EventLog

	client    *http.Client
	mu        sync.Mutex
	positions map[string]uint64
}

func (s *Syncer) interval() time.Duration {
	if s.Interval > 0 {
		return s.Interval
	}
	return time.Second
}

func (s *Syncer) httpClient() *http.Client {
	if s.client == nil {
		s.client = &http.Client{Timeout: syncTimeout}
	}
	return s.client
}

// Run pulls from every peer on the interval until ctx is done.
func (s *Syncer) Run(ctx context.Context) {
	tick := time.NewTicker(s.interval())
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.PullOnce(ctx)
		case <-ctx.Done():
			return
		}
	}
}

// PullOnce performs one pull round across all peers and reports how
// many novel moduli landed in the local index.
func (s *Syncer) PullOnce(ctx context.Context) int {
	landed := 0
	for _, peer := range s.Peers {
		if peer == s.Self {
			continue
		}
		n, err := s.pullPeer(ctx, peer)
		if err != nil {
			s.Metrics.Counter(`cluster_sync_errors_total{peer="` + peer + `"}`).Inc()
			s.Events.Debug(ctx, "sync pull failed",
				slog.String("peer", peer),
				slog.String("error", err.Error()))
			continue
		}
		landed += n
	}
	return landed
}

// maxSyncBody bounds one sync page read on the client side: a page holds
// at most maxSyncKeys keys of at most keycheck.MaxModulusBits (4 KiB of
// hex each), about 4 MiB, with room to spare.
const maxSyncBody = 32 << 20

// pullPeer drains a peer's journal tail: one bounded page per request,
// ingested and position-advanced independently, looping while the peer
// reports more. A restarted or long-lagging replica catches up in
// maxSyncKeys-sized steps instead of choking on one unbounded body.
func (s *Syncer) pullPeer(ctx context.Context, peer string) (int, error) {
	landed := 0
	for {
		n, more, err := s.pullPage(ctx, peer)
		landed += n
		if err != nil || !more {
			return landed, err
		}
	}
}

// decodeSyncPage reads the /v1/sync page a peer served for position
// since, at most maxSyncBody bytes of it. A page claiming more without
// advancing is refused — it would loop forever; a correct peer always
// moves past since when it has entries.
func decodeSyncPage(body io.Reader, since uint64) (syncResponse, error) {
	var sr syncResponse
	if err := json.NewDecoder(io.LimitReader(body, maxSyncBody)).Decode(&sr); err != nil {
		return syncResponse{}, err
	}
	if sr.More && sr.Generation <= since {
		return syncResponse{}, fmt.Errorf("page stuck at generation %d", since)
	}
	return sr, nil
}

func (s *Syncer) pullPage(ctx context.Context, peer string) (int, bool, error) {
	s.mu.Lock()
	since := s.positions[peer]
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(ctx, syncTimeout)
	defer cancel()
	url := fmt.Sprintf("http://%s/v1/sync?since=%d", peer, since)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, false, err
	}
	resp, err := s.httpClient().Do(req)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 256))
		return 0, false, fmt.Errorf("cluster: sync from %s: HTTP %d", peer, resp.StatusCode)
	}
	sr, err := decodeSyncPage(resp.Body, since)
	if err != nil {
		return 0, false, fmt.Errorf("cluster: sync from %s: %w", peer, err)
	}
	s.Metrics.Counter("cluster_sync_pulls_total").Inc()
	if len(sr.ModuliHex) == 0 {
		s.setPosition(peer, sr.Generation)
		return 0, sr.More, nil
	}
	store := scanstore.New()
	now := time.Now().UTC()
	for _, hex := range sr.ModuliHex {
		n, err := keycheck.ParseModulusHex(hex)
		if err != nil {
			// A peer serving malformed moduli is a peer bug; skip the
			// key, keep the rest of the batch.
			s.Metrics.Counter("cluster_sync_malformed_total").Inc()
			continue
		}
		// SourceSync marks the key as replicated, not observed: the
		// original observation's provenance lives on the origin
		// replica, and per-source statistics must not count this copy
		// as a fresh scan hit.
		store.AddBareKeyObservation(peer, now, scanstore.SourceSync, scanstore.HTTPS, n)
	}
	rep, err := s.Service.Ingest(ctx, keycheck.BuildInput{Store: store})
	if err != nil {
		return 0, false, err
	}
	// Only advance past this page once it is actually in the index; a
	// failed ingest re-pulls the same page next round.
	s.setPosition(peer, sr.Generation)
	s.Metrics.Counter("cluster_sync_moduli_total").Add(int64(rep.DeltaModuli))
	if rep.DeltaModuli > 0 {
		s.Events.Info(ctx, "sync delta ingested",
			slog.String("peer", peer),
			slog.Uint64("generation", sr.Generation),
			slog.Int("novel", rep.DeltaModuli),
			slog.Int("duplicates", rep.Duplicates),
			slog.Int("skipped", rep.Skipped))
	}
	return rep.DeltaModuli, sr.More, nil
}

func (s *Syncer) setPosition(peer string, gen uint64) {
	s.mu.Lock()
	if s.positions == nil {
		s.positions = make(map[string]uint64)
	}
	s.positions[peer] = gen
	s.mu.Unlock()
}
