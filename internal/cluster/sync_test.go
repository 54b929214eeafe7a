package cluster

import (
	"context"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/factorable/weakkeys/internal/keycheck"
	"github.com/factorable/weakkeys/internal/telemetry"
)

func TestJournalSince(t *testing.T) {
	j := &Journal{}
	if gen, keys := j.Since(0); gen != 0 || keys != nil {
		t.Fatalf("empty journal: Since(0) = %d/%v", gen, keys)
	}
	if got := j.Append(nil); got != 0 {
		t.Errorf("empty append bumped the generation to %d", got)
	}
	if got := j.Append([]string{"aa", "bb"}); got != 1 {
		t.Errorf("first append generation = %d, want 1", got)
	}
	if got := j.Append([]string{"cc"}); got != 2 {
		t.Errorf("second append generation = %d, want 2", got)
	}
	gen, keys := j.Since(0)
	if gen != 2 || len(keys) != 3 || keys[0] != "aa" || keys[2] != "cc" {
		t.Errorf("Since(0) = %d/%v, want 2/[aa bb cc]", gen, keys)
	}
	if _, keys := j.Since(1); len(keys) != 1 || keys[0] != "cc" {
		t.Errorf("Since(1) = %v, want [cc]", keys)
	}
	if gen, keys := j.Since(2); gen != 2 || keys != nil {
		t.Errorf("Since(head) = %d/%v, want 2/nil", gen, keys)
	}
}

// TestJournalCoalesce overflows the entry bound: the journal must stay
// bounded while a reader at any position still receives every key
// appended after it — over-delivery is fine, loss is not.
func TestJournalCoalesce(t *testing.T) {
	j := &Journal{}
	const total = maxJournalEntries + 200
	for i := 0; i < total; i++ {
		j.Append([]string{fmt.Sprintf("k%04d", i)})
	}
	j.mu.Lock()
	entries := len(j.entries)
	j.mu.Unlock()
	if entries > maxJournalEntries {
		t.Errorf("journal holds %d entries, bound is %d", entries, maxJournalEntries)
	}
	gen, keys := j.Since(0)
	if gen != total {
		t.Errorf("generation = %d, want %d", gen, total)
	}
	if len(keys) != total {
		t.Fatalf("Since(0) returned %d keys, want all %d", len(keys), total)
	}
	// A reader positioned mid-log gets at least everything after its
	// position (coalescing may re-deliver older keys, never drop newer).
	const pos = total - 50
	_, tail := j.Since(pos)
	want := make(map[string]bool, 50)
	for i := pos; i < total; i++ {
		want[fmt.Sprintf("k%04d", i)] = true
	}
	for _, k := range tail {
		delete(want, k)
	}
	if len(want) != 0 {
		t.Errorf("Since(%d) lost %d keys after the position", pos, len(want))
	}
}

// TestJournalPage walks a reader through a journal far larger than one
// page: every key must arrive (over-delivery from coalescing is fine),
// every page must respect the cap and advance the position, and the
// final position must land on the journal head.
func TestJournalPage(t *testing.T) {
	j := &Journal{}
	const perEntry = 3
	const entries = maxJournalEntries + 188 // overflow: paging must survive coalescing
	want := make(map[string]bool, entries*perEntry)
	for i := 0; i < entries; i++ {
		keys := make([]string, perEntry)
		for k := range keys {
			keys[k] = fmt.Sprintf("p%05d", i*perEntry+k)
			want[keys[k]] = true
		}
		j.Append(keys)
	}
	pos, pages := uint64(0), 0
	for {
		gen, keys, more := j.Page(pos)
		pages++
		if pages > 100 {
			t.Fatal("paging never terminated")
		}
		if len(keys) > maxSyncKeys {
			t.Errorf("page %d holds %d keys, cap is %d", pages, len(keys), maxSyncKeys)
		}
		for _, k := range keys {
			delete(want, k)
		}
		if more && gen <= pos {
			t.Fatalf("page %d claims more but did not advance past %d", pages, pos)
		}
		pos = gen
		if !more {
			break
		}
	}
	if len(want) != 0 {
		t.Errorf("paged reads lost %d keys", len(want))
	}
	if pos != j.Generation() {
		t.Errorf("final position %d, want the journal head %d", pos, j.Generation())
	}
	if pages < 2 {
		t.Errorf("tail of %d keys fit in %d page(s); cap %d not exercised", entries*perEntry, pages, maxSyncKeys)
	}
	// At the head: an empty terminal page holding the position.
	if gen, keys, more := j.Page(pos); gen != pos || len(keys) != 0 || more {
		t.Errorf("Page(head) = %d/%d keys/more=%v, want %d/0/false", gen, len(keys), more, pos)
	}
	// Past the head (the origin restarted with a fresh journal): the
	// position rewinds to zero, so the next pull re-reads the journal
	// from its start instead of skipping what the new life appended.
	if gen, keys, more := j.Page(pos + 100); gen != 0 || len(keys) != 0 || more {
		t.Errorf("Page(past head) = %d/%d keys/more=%v, want 0/0/false", gen, len(keys), more)
	}
}

// TestJournalPageOversizedEntry: a single ingest larger than the page
// cap is returned whole — a page must make progress — and the entries
// around it still page at entry granularity.
func TestJournalPageOversizedEntry(t *testing.T) {
	j := &Journal{}
	wide := make([]string, maxSyncKeys+10)
	for i := range wide {
		wide[i] = fmt.Sprintf("b%05d", i)
	}
	j.Append([]string{"aa"})
	j.Append(wide)
	j.Append([]string{"zz"})

	gen, keys, more := j.Page(0)
	if gen != 1 || len(keys) != 1 || keys[0] != "aa" || !more {
		t.Errorf("Page(0) = %d/%d keys/more=%v, want the first entry alone", gen, len(keys), more)
	}
	gen, keys, more = j.Page(gen)
	if gen != 2 || len(keys) != len(wide) || !more {
		t.Errorf("Page(1) = %d/%d keys/more=%v, want the oversized entry whole", gen, len(keys), more)
	}
	gen, keys, more = j.Page(gen)
	if gen != 3 || len(keys) != 1 || keys[0] != "zz" || more {
		t.Errorf("Page(2) = %d/%d keys/more=%v, want the final entry", gen, len(keys), more)
	}
}

// TestSyncerPaging drains a journal tail that spans several pages
// through the real HTTP pull path: one PullOnce must land every key,
// in multiple bounded requests, and leave the position at the head.
func TestSyncerPaging(t *testing.T) {
	// Pairwise-coprime keys (small primes) keep the ingest trivial: the
	// test is about the wire protocol, not the GCD sweep.
	var want []string
	const total = 2*maxSyncKeys + 453
	for v := 65537; len(want) < total; v += 2 {
		prime := true
		for d := 3; d*d <= v; d += 2 {
			if v%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			want = append(want, fmt.Sprintf("%x", v))
		}
	}
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
	if pos := s.Positions()[origin]; pos != j.Generation() {
		t.Errorf("position %d after the pull, want the journal head %d", pos, j.Generation())
	}
	if landed := s.PullOnce(ctx); landed != 0 {
		t.Errorf("drained journal still landed %d moduli", landed)
	}
}

// TestSyncerRepullsRestartedOrigin: an origin that restarted has a fresh
// journal whose head is below the puller's old position. The first pull
// must rewind the position to zero and the second land every key the
// origin appended since the restart — not skip them for good.
func TestSyncerRepullsRestartedOrigin(t *testing.T) {
	j := &Journal{}
	j.Append([]string{"10001", "10003"})
	j.Append([]string{"10007"})
	j.Append([]string{"1000f"})
	srv := httptest.NewServer(j.Handler())
	defer srv.Close()
	origin := strings.TrimPrefix(srv.URL, "http://")

	svc := keycheck.NewService(keycheck.Empty(8), keycheck.Config{Workers: 2})
	s := &Syncer{Self: "puller", Peers: []string{origin}, Service: svc}
	s.setPosition(origin, 50) // where the origin's past life had reached
	ctx := context.Background()

	if landed := s.PullOnce(ctx); landed != 0 {
		t.Errorf("rewinding pull landed %d moduli, want 0", landed)
	}
	if pos := s.Positions()[origin]; pos != 0 {
		t.Fatalf("position %d after pulling past the head, want 0", pos)
	}
	if landed := s.PullOnce(ctx); landed != 4 {
		t.Errorf("second pull landed %d moduli, want all 4", landed)
	}
	if pos := s.Positions()[origin]; pos != j.Generation() {
		t.Errorf("position %d, want the journal head %d", pos, j.Generation())
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
		gens[i] = rep.journal.Generation()
	}
	if landed := pullAll(); landed != 0 {
		t.Errorf("settled mesh still landed %d moduli", landed)
	}
	for i, rep := range replicas {
		if g := rep.journal.Generation(); g != gens[i] {
			t.Errorf("replica %s journal grew %d -> %d after quiescence", rep.addr, gens[i], g)
		}
	}
}
