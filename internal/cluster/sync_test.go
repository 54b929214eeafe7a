package cluster

import (
	"context"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/factorable/weakkeys/internal/keycheck"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// journalHead returns j's current generation, its head.
func journalHead(j *Journal) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.head()
}

// TestJournalSince reads a small journal since a position: each append
// advances the generation by its key count, a fresh reader's 0 is served
// from the start, and keys come back once each in append order.
func TestJournalSince(t *testing.T) {
	j := &Journal{}
	base := j.Append(nil)
	if base < 1<<62 {
		t.Fatalf("fresh journal's generation %d is below the minted base range", base)
	}
	if gen, keys, more := j.Page(0); gen != base || len(keys) != 0 || more {
		t.Errorf("empty journal: Page(0) = %d/%v/%v, want %d/[]/false", gen, keys, more, base)
	}
	if got := j.Append([]string{"aa", "bb"}); got != base+2 {
		t.Errorf("first append generation = base+%d, want base+2", got-base)
	}
	if got := j.Append([]string{"cc"}); got != base+3 {
		t.Errorf("second append generation = base+%d, want base+3", got-base)
	}
	if gen, keys, more := j.Page(0); gen != base+3 || strings.Join(keys, " ") != "aa bb cc" || more {
		t.Errorf("Page(0) = base+%d/%v/%v, want base+3/[aa bb cc]/false", gen-base, keys, more)
	}
	if gen, keys, _ := j.Page(base + 2); gen != base+3 || strings.Join(keys, " ") != "cc" {
		t.Errorf("Page(base+2) = base+%d/%v, want base+3/[cc]", gen-base, keys)
	}
	if gen, keys, more := j.Page(base + 3); gen != base+3 || len(keys) != 0 || more {
		t.Errorf("Page(head) = base+%d/%v/%v, want base+3/[]/false", gen-base, keys, more)
	}
}

// TestJournalPage walks a reader through a tail spanning several pages:
// keys come back once each in append order, every page respects the cap
// and advances the position, the final position lands on the head, and
// a position past the head rewinds to 0.
func TestJournalPage(t *testing.T) {
	j := &Journal{}
	base := j.Append(nil)
	j.Append([]string{"aa", "bb", "cc"})

	var want []string
	for i := 0; i < 2*maxSyncKeys+453; i += 3 {
		entry := []string{fmt.Sprintf("p%05d", i), fmt.Sprintf("p%05d", i+1), fmt.Sprintf("p%05d", i+2)}
		want = append(want, entry...)
		j.Append(entry)
	}
	var got []string
	pos, pages := base+3, 0
	for more := true; more; pages++ {
		var gen uint64
		var keys []string
		gen, keys, more = j.Page(pos)
		if len(keys) > maxSyncKeys {
			t.Errorf("page %d holds %d keys, cap is %d", pages, len(keys), maxSyncKeys)
		}
		if more && gen <= pos {
			t.Fatalf("page %d claims more but did not advance past %d", pages, pos)
		}
		got, pos = append(got, keys...), gen
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("paged reads returned %d keys, want the %d appended, in order", len(got), len(want))
	}
	if pos != journalHead(j) {
		t.Errorf("final position base+%d, want the journal head base+%d", pos-base, journalHead(j)-base)
	}
	if pages < 3 {
		t.Errorf("tail of %d keys fit in %d page(s); cap %d not exercised", len(want), pages, maxSyncKeys)
	}
	// At the head: an empty terminal page holding the position.
	if gen, keys, more := j.Page(pos); gen != pos || len(keys) != 0 || more {
		t.Errorf("Page(head) = %d/%d keys/more=%v, want %d/0/false", gen, len(keys), more, pos)
	}
	// Past the head (a position from the origin's past life): the
	// position rewinds to zero, so the next pull reads from the start.
	if gen, keys, more := j.Page(pos + 100); gen != 0 || len(keys) != 0 || more {
		t.Errorf("Page(past head) = %d/%d keys/more=%v, want 0/0/false", gen, len(keys), more)
	}
}

// TestJournalConcurrentAppendAndPage: appenders race a reader paging
// from a fresh 0 (the first use, which mints the base, is raced too).
// Run with -race: once the appenders are done and the reader has drained
// the tail, it must hold every key exactly once.
func TestJournalConcurrentAppendAndPage(t *testing.T) {
	j := &Journal{}
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				j.Append([]string{fmt.Sprintf("w%d-%d", w, i)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	seen := make(map[string]int, writers*perWriter)
	var pos uint64
	for racing := true; racing; {
		select {
		case <-done:
			racing = false // one more drain, after the last append
		default:
		}
		for more := true; more; {
			var keys []string
			pos, keys, more = j.Page(pos)
			for _, k := range keys {
				seen[k]++
			}
		}
	}
	if len(seen) != writers*perWriter {
		t.Errorf("reader holds %d distinct keys, want %d", len(seen), writers*perWriter)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("key %s read %d times", k, n)
		}
	}
}

// primeKeys returns n pairwise-coprime keys (small primes, hex): they
// keep the ingest trivial, as the sync tests are about the wire
// protocol, not the GCD sweep.
func primeKeys(n int) []string {
	var keys []string
	for v := 65537; len(keys) < n; v += 2 {
		prime := true
		for d := 3; d*d <= v; d += 2 {
			if v%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			keys = append(keys, fmt.Sprintf("%x", v))
		}
	}
	return keys
}

// TestSyncerPaging drains a journal tail that spans several pages
// through the real HTTP pull path: one PullOnce must land every key,
// in multiple bounded requests, and leave the position at the head.
func TestSyncerPaging(t *testing.T) {
	const total = 2*maxSyncKeys + 453
	want := primeKeys(total)
	j := &Journal{}
	for i := 0; i < total; i += 7 {
		end := i + 7
		if end > total {
			end = total
		}
		j.Append(want[i:end])
	}

	var requests atomic.Int32
	mux := http.NewServeMux()
	handler := j.Handler()
	mux.HandleFunc("/v1/sync", func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		handler(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	origin := strings.TrimPrefix(srv.URL, "http://")

	svc := keycheck.NewService(keycheck.Empty(8), keycheck.Config{Workers: 4})
	s := &Syncer{Self: "puller", Peers: []string{origin}, Service: svc, Metrics: telemetry.New()}
	ctx := context.Background()

	if landed := s.PullOnce(ctx); landed != total {
		t.Fatalf("first pull landed %d moduli, want all %d", landed, total)
	}
	if n := int(requests.Load()); n < 3 {
		t.Errorf("tail of %d keys drained in %d request(s); paging not exercised", total, n)
	}
	if got := svc.Index().Snapshot().Moduli(); got != total {
		t.Errorf("index holds %d moduli, want %d", got, total)
	}
	if pos := s.positions[origin]; pos != journalHead(j) {
		t.Errorf("position %d after the pull, want the journal head %d", pos, journalHead(j))
	}
	if landed := s.PullOnce(ctx); landed != 0 {
		t.Errorf("drained journal still landed %d moduli", landed)
	}
}

// TestSyncerRepullsRestartedOrigin: a puller has drained an origin's
// journal; the origin restarts with a fresh journal that soon holds more
// entries than its past life did. The puller's old position must not
// make it skip the new life's first entries: within two pulls every key
// the restarted origin appended lands.
func TestSyncerRepullsRestartedOrigin(t *testing.T) {
	keys := primeKeys(9)
	past, restarted := &Journal{}, &Journal{}
	for _, k := range keys[:3] {
		past.Append([]string{k})
	}
	for _, k := range keys[3:] {
		restarted.Append([]string{k})
	}
	var live atomic.Pointer[Journal]
	live.Store(past)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		live.Load().Handler()(w, r)
	}))
	defer srv.Close()
	origin := strings.TrimPrefix(srv.URL, "http://")

	svc := keycheck.NewService(keycheck.Empty(8), keycheck.Config{Workers: 2})
	s := &Syncer{Self: "puller", Peers: []string{origin}, Service: svc}
	ctx := context.Background()
	if landed := s.PullOnce(ctx); landed != 3 {
		t.Fatalf("pull of the past life landed %d moduli, want 3", landed)
	}

	live.Store(restarted)
	s.PullOnce(ctx)
	s.PullOnce(ctx)
	snap := svc.Index().Snapshot()
	for _, k := range keys[3:] {
		n, err := keycheck.ParseModulusHex(k)
		if err != nil {
			t.Fatal(err)
		}
		if !snap.Check(n).Known {
			t.Errorf("key %s of the restarted origin never landed", k)
		}
	}
}

// TestSyncPropagation walks a novel modulus through the full loop:
// routed ingest lands it on one owner of its home shard, anti-entropy
// pulls replicate it to the other owner (and only there — non-owners
// skip it), and the mesh quiesces instead of echoing forever.
func TestSyncPropagation(t *testing.T) {
	rt, replicas := newTestCluster(t, 3, 8, 2)
	ctx := context.Background()
	p := rt.Placement()

	addrs := make([]string, len(replicas))
	baseline := 0
	for i, rep := range replicas {
		addrs[i] = rep.addr
		baseline += rep.svc.Index().Snapshot().Moduli()
	}

	resp := rt.ingest(ctx, []string{modNs.Text(16)}, []*big.Int{modNs})
	if resp.DeltaModuli != 1 || resp.Degraded {
		t.Fatalf("routed ingest = %+v, want one novel modulus landed", resp)
	}

	syncers := make([]*Syncer, len(replicas))
	for i, rep := range replicas {
		syncers[i] = &Syncer{
			Self:    rep.addr,
			Peers:   addrs,
			Service: rep.svc,
			Metrics: telemetry.New(),
		}
	}
	pullAll := func() int {
		landed := 0
		for _, s := range syncers {
			landed += s.PullOnce(ctx)
		}
		return landed
	}
	// Round 1 replicates the key to its other home-shard owner; by the
	// end of round 2 every peer has seen (and deduped or skipped) it.
	pullAll()
	pullAll()

	owners := map[string]bool{}
	for _, o := range p.Owners(keycheck.ShardOf(modNs, p.Shards())) {
		owners[o] = true
	}
	after := 0
	for _, rep := range replicas {
		snap := rep.svc.Index().Snapshot()
		after += snap.Moduli()
		has := snap.Check(modNs).Known
		if owners[rep.addr] && !has {
			t.Errorf("owner %s missing the synced modulus", rep.addr)
		}
		if !owners[rep.addr] && has {
			t.Errorf("non-owner %s indexed a modulus outside its shards", rep.addr)
		}
	}
	if after != baseline+len(owners) {
		t.Errorf("total moduli %d, want baseline %d + %d replication copies", after, baseline, len(owners))
	}

	// The mesh must go quiet: no new deltas, no journal growth.
	gens := make([]uint64, len(replicas))
	for i, rep := range replicas {
		gens[i] = journalHead(rep.journal)
	}
	if landed := pullAll(); landed != 0 {
		t.Errorf("settled mesh still landed %d moduli", landed)
	}
	for i, rep := range replicas {
		if g := journalHead(rep.journal); g != gens[i] {
			t.Errorf("replica %s journal grew %d -> %d after quiescence", rep.addr, gens[i], g)
		}
	}
}
