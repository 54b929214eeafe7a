package cluster

import (
	"context"
	"encoding/json"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/faults"
	"github.com/factorable/weakkeys/internal/keycheck"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// TestRouterVerdicts drives the four golden inputs through the routed
// path with every replica healthy: verdicts must match what a single
// full-corpus keyserverd would answer, with no Partial leaking out.
func TestRouterVerdicts(t *testing.T) {
	rt, _ := newTestCluster(t, 3, 8, 2)
	ctx := context.Background()
	hops := 0
	defer func() {
		// cluster_check_hops holds one observation per routed check.
		if h := rt.metrics.Histogram("cluster_check_hops", hopBuckets); h.Count() != 4 || h.Sum() != float64(hops) {
			t.Errorf("cluster_check_hops: %d checks, %v hops; want 4 checks, %d hops", h.Count(), h.Sum(), hops)
		}
	}()

	v := rt.Check(ctx, modN1)
	hops += v.Hops
	if v.Status != keycheck.StatusFactored || !v.Known {
		t.Errorf("N1 = %+v, want factored/known", v.Verdict)
	}
	if v.FactorP != p2.Text(16) || v.FactorQ != p1.Text(16) {
		t.Errorf("N1 factors %s,%s", v.FactorP, v.FactorQ)
	}
	if v.Partial || v.Degraded || v.Hops != 1 {
		t.Errorf("N1 partial=%v degraded=%v hops=%d, want definitive 1-hop", v.Partial, v.Degraded, v.Hops)
	}

	v = rt.Check(ctx, modN3)
	hops += v.Hops
	if v.Status != keycheck.StatusClean || !v.Known || v.Degraded {
		t.Errorf("N3 = %+v, want clean/known", v.Verdict)
	}

	v = rt.Check(ctx, modNc)
	hops += v.Hops
	if v.Status != keycheck.StatusClean || v.Known || v.Degraded || v.Partial {
		t.Errorf("Nc = %+v degraded=%v, want clean/novel/full-coverage", v.Verdict, v.Degraded)
	}
	if len(v.UnreachableShards) != 0 {
		t.Errorf("Nc unreachable shards %v with a healthy cluster", v.UnreachableShards)
	}
	if v.Hops != 2 {
		t.Errorf("Nc hops = %d, want the home replica plus one scatter request (one replica holds every shard the home lacks)", v.Hops)
	}

	v = rt.Check(ctx, modNs)
	hops += v.Hops
	if v.Status != keycheck.StatusSharedFactor || v.Known || v.Degraded {
		t.Errorf("Ns = %+v, want shared_factor/novel", v.Verdict)
	}
	if v.Divisor != p3.Text(16) {
		t.Errorf("Ns divisor %s, want %s", v.Divisor, p3.Text(16))
	}
	if v.FactorP != r1.Text(16) || v.FactorQ != p3.Text(16) {
		t.Errorf("Ns factors %s,%s", v.FactorP, v.FactorQ)
	}
}

// TestRouterFailover kills the primary owner of N1's home shard: the
// routed check must fail over to the surviving owner and still come
// back definitive — no degradation with replication 2 and one loss.
func TestRouterFailover(t *testing.T) {
	rt, replicas := newTestCluster(t, 3, 8, 2)
	ctx := context.Background()
	p := rt.Placement()

	home := keycheck.ShardOf(modN1, p.Shards())
	dead := p.Owners(home)[0]
	replicaByAddr(t, replicas, dead).srv.Close()

	v := rt.Check(ctx, modN1)
	if v.Status != keycheck.StatusFactored || !v.Known || v.Degraded {
		t.Errorf("N1 with dead primary = %+v degraded=%v, want factored/known", v.Verdict, v.Degraded)
	}
	if v.Replica == dead {
		t.Errorf("answer attributed to the dead replica %s", dead)
	}
	if v.Hops < 2 {
		t.Errorf("hops = %d, want a failover hop", v.Hops)
	}
	if got := rt.Replica(dead).RequestFailures(); got < 1 {
		t.Errorf("dead replica request failures = %d, want >= 1", got)
	}

	// Novel scatter still covers every shard through surviving owners.
	v = rt.Check(ctx, modNs)
	if v.Status != keycheck.StatusSharedFactor || v.Degraded {
		t.Errorf("Ns with dead replica = %+v degraded=%v, want shared_factor", v.Verdict, v.Degraded)
	}

	// Enough consecutive failures open the dead replica's breaker. The
	// repeated key is novel and clean and homed on the dead replica's
	// shard, so every check tries it first while its breaker is closed
	// (a repeat of N1 would be answered from the router's memo, and a
	// scatter for some other key reaches the dead replica only under
	// placements, the addresses being random ports, where the round's set
	// cover picks it). Check until it opens, bounded.
	repeat := homedIn(t, p, freshPrime, home)
	for deadline := time.Now().Add(2 * time.Second); rt.Replica(dead).Breaker.Opens() < 1 && time.Now().Before(deadline); {
		rt.Check(ctx, repeat)
	}
	if rt.Replica(dead).Breaker.Opens() < 1 {
		t.Errorf("dead replica breaker never opened (state %v)", rt.Replica(dead).Breaker.State())
	}
}

// TestRouterDegraded kills two of three replicas: with replication 2
// some shards lose both owners, and a novel check must degrade to a
// partial verdict naming those shards instead of failing.
func TestRouterDegraded(t *testing.T) {
	rt, replicas := newTestCluster(t, 3, 8, 2)
	ctx := context.Background()
	p := rt.Placement()

	survivor := replicas[0].addr
	for _, rep := range replicas[1:] {
		rep.srv.Close()
	}
	alive := func(r string) bool { return r == survivor }
	wantUncovered := p.Uncovered(alive)
	if len(wantUncovered) == 0 {
		t.Fatal("fixture lost its bite: one survivor still covers every shard")
	}

	v := rt.Check(ctx, modNc)
	if !v.Degraded {
		t.Fatalf("two dead owners but verdict not degraded: %+v", v)
	}
	if v.Status != keycheck.StatusClean || v.Known {
		t.Errorf("Nc degraded = %+v, want clean/novel from partial coverage", v.Verdict)
	}
	if len(v.UnreachableShards) != len(wantUncovered) {
		t.Errorf("unreachable shards %v, want %v", v.UnreachableShards, wantUncovered)
	} else {
		for i, s := range wantUncovered {
			if v.UnreachableShards[i] != s {
				t.Errorf("unreachable shards %v, want %v", v.UnreachableShards, wantUncovered)
				break
			}
		}
	}
	if v.Partial {
		t.Error("router leaked the replica-level Partial flag; Degraded is the cluster-level signal")
	}
}

// TestRouterCrossShardIngest pins the cross-shard coverage fix: two
// moduli sharing a prime are ingested through the router after the
// build, homed in shards whose primary owners differ. Neither replica
// ever sees both moduli, so no ingest-time GCD can pair them — a clean
// member answer from the home owner must not short-circuit the scatter.
// (The old member fast path did, and reported both keys clean forever.)
func TestRouterCrossShardIngest(t *testing.T) {
	rt, replicas := newTestCluster(t, 3, 8, 2)
	ctx := context.Background()
	p := rt.Placement()

	// Two shards whose primary owners hold no copy of each other's
	// shard: with every replica healthy the routed ingests land on two
	// replicas neither of which can pair the moduli by itself, and
	// neither home owner's answer covers the mate's shard.
	sA, sB, ok := crossOwnedShards(p)
	if !ok {
		t.Fatal("fixture lost its bite: no two shards with disjoint primary owners")
	}

	mA, mB := homedIn(t, p, freshPrime, sA), homedIn(t, p, freshPrime, sB)

	for _, m := range []*big.Int{mA, mB} {
		resp := rt.ingest(ctx, []string{m.Text(16)}, []*big.Int{m})
		if resp.DeltaModuli != 1 || resp.Degraded {
			t.Fatalf("routed ingest = %+v, want one novel modulus landed", resp)
		}
	}

	// Before any sync round each modulus is a clean member of its own
	// home owner; only the full scatter can pair it with its mate.
	for _, m := range []*big.Int{mA, mB} {
		v := rt.Check(ctx, m)
		if !v.Compromised() {
			t.Errorf("pre-sync check = %+v, want the scatter to find the shared prime", v.Verdict)
		}
		if v.Degraded {
			t.Errorf("pre-sync check degraded with a healthy cluster: %+v", v)
		}
	}

	// Anti-entropy: each home owner pulls the other's journal, and the
	// foreign modulus re-labels its owned mate even though the foreign
	// key's own home shard is not indexed there.
	addrs := make([]string, len(replicas))
	for i, rep := range replicas {
		addrs[i] = rep.addr
	}
	syncers := make([]*Syncer, len(replicas))
	for i, rep := range replicas {
		syncers[i] = &Syncer{Self: rep.addr, Peers: addrs, Service: rep.svc, Metrics: telemetry.New()}
	}
	for round := 0; round < 2; round++ {
		for _, s := range syncers {
			s.PullOnce(ctx)
		}
	}
	for _, pr := range []struct {
		owner string
		m     *big.Int
	}{
		{p.Owners(sA)[0], mA},
		{p.Owners(sB)[0], mB},
	} {
		snap := replicaByAddr(t, replicas, pr.owner).svc.Index().Snapshot()
		if v := snap.Check(pr.m); !v.Compromised() {
			t.Errorf("after sync, owner %s still reports its member clean: %+v", pr.owner, v)
		}
	}

	// Routed checks stay compromised once the owners have converged.
	for _, m := range []*big.Int{mA, mB} {
		v := rt.Check(ctx, m)
		if !v.Compromised() || v.Degraded {
			t.Errorf("post-sync check = %+v degraded=%v, want compromised", v.Verdict, v.Degraded)
		}
	}
}

// TestRouterIngestCountsOnce: a modulus sharing q1 with the clean member
// N3, homed in N3's shard, is written to both of its owners, and each
// factors it and re-labels N3. The reply counts one novel modulus, one
// factored and one re-labeled member, while each owner's own report
// counts all three.
func TestRouterIngestCountsOnce(t *testing.T) {
	rt, _ := newTestCluster(t, 3, 8, 2)
	p := rt.Placement()
	shard := keycheck.ShardOf(modN3, p.Shards())
	m := homedIn(t, p, q1, shard)
	resp := rt.ingest(context.Background(), []string{m.Text(16)}, []*big.Int{m})
	if resp.DeltaModuli != 1 || resp.NewFactored != 1 || resp.Refactored != 1 || resp.Duplicates != 0 || resp.Degraded {
		t.Errorf("ingest = %+v, want 1 delta / 1 factored / 1 refactored, undegraded", resp)
	}
	for _, owner := range p.Owners(shard) {
		if rep := resp.Replicas[owner]; rep.DeltaModuli != 1 || rep.NewFactored != 1 || rep.Refactored != 1 {
			t.Errorf("owner %s reported %+v, want its own 1 / 1 / 1", owner, rep)
		}
	}
	resp = rt.ingest(context.Background(), []string{m.Text(16)}, []*big.Int{m})
	if resp.DeltaModuli != 0 || resp.Duplicates != 1 || resp.Degraded {
		t.Errorf("re-ingest = %+v, want 1 duplicate", resp)
	}
}

// TestRouterNegativeRetries: a negative Retries must mean "no retry
// rounds", not "no rounds at all" — the initial attempt still runs, so
// a healthy cluster answers definitively and ingests still land.
func TestRouterNegativeRetries(t *testing.T) {
	_, replicas := newTestCluster(t, 3, 8, 2)
	ctx := context.Background()
	addrs := make([]string, len(replicas))
	for i, rep := range replicas {
		addrs[i] = rep.addr
	}
	rt, err := NewRouter(RouterConfig{
		Replicas:       addrs,
		Shards:         8,
		Replication:    2,
		RequestTimeout: 5 * time.Second,
		Retries:        -1,
		Metrics:        telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	v := rt.Check(ctx, modNc)
	if v.Status != keycheck.StatusClean || v.Degraded || v.Partial {
		t.Errorf("Nc with retries=-1 = %+v degraded=%v, want the initial round to still run", v.Verdict, v.Degraded)
	}
	resp := rt.ingest(ctx, []string{modNc.Text(16)}, []*big.Int{modNc})
	if resp.DeltaModuli != 1 || resp.Degraded {
		t.Errorf("ingest with retries=-1 = %+v, want one modulus landed on the initial round", resp)
	}
}

// truncateChecks wraps a replica handler with a fault plan: scheduled
// /v1/check responses send headers plus a partial JSON body, then drop
// the connection — the replica dying mid-response.
func truncateChecks(next http.Handler, plan *faults.Plan) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/check" && plan.Next() == faults.Truncate {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("test server does not support hijacking")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				return
			}
			conn.Write([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 500\r\n\r\n{\"status\":"))
			conn.Close()
			return
		}
		next.ServeHTTP(w, r)
	})
}

// TestRouterTruncatedBodyRetry makes the primary owner of N1's home
// shard die mid-response on every check: the unexpected-EOF body read
// must classify as a transient reset and fail over to the peer owner,
// with the verdict unharmed.
func TestRouterTruncatedBodyRetry(t *testing.T) {
	rt, replicas := newTestCluster(t, 3, 8, 2)
	ctx := context.Background()
	p := rt.Placement()

	home := keycheck.ShardOf(modN1, p.Shards())
	flaky := replicaByAddr(t, replicas, p.Owners(home)[0])
	inner := flaky.handler.load()
	flaky.handler.store(truncateChecks(inner, faults.NewEveryN(1, faults.Truncate)))

	v := rt.Check(ctx, modN1)
	if v.Status != keycheck.StatusFactored || !v.Known || v.Degraded {
		t.Errorf("N1 behind truncation = %+v degraded=%v, want factored/known", v.Verdict, v.Degraded)
	}
	if v.FactorP != p2.Text(16) || v.FactorQ != p1.Text(16) {
		t.Errorf("N1 factors %s,%s", v.FactorP, v.FactorQ)
	}
	if v.Replica == flaky.addr {
		t.Errorf("answer attributed to the truncating replica %s", flaky.addr)
	}
	if v.Hops < 2 {
		t.Errorf("hops = %d, want a retry against the peer owner", v.Hops)
	}
	if got := rt.Replica(flaky.addr).RequestFailures(); got < 1 {
		t.Errorf("truncating replica request failures = %d, want >= 1", got)
	}
}

// TestRouterSpentBudgetEndsRounds: once the retry budget refuses, no
// later round can send anything, so the scatter must stop — not sleep
// out every remaining backoff and count the same exhaustion once per
// round. Two of three replicas are dead and the budget is already spent
// when the check arrives: the degraded answer takes one backoff interval
// (the sleep before the round that gets refused), and the exhaustion
// counter reads exactly one.
func TestRouterSpentBudgetEndsRounds(t *testing.T) {
	fixture, replicas := newTestCluster(t, 3, 8, 2)
	ctx := context.Background()
	const backoff = 100 * time.Millisecond
	reg := telemetry.New()
	rt, err := NewRouter(RouterConfig{
		Replicas:        fixture.Placement().Replicas(),
		Shards:          8,
		Replication:     2,
		RequestTimeout:  5 * time.Second,
		Retries:         3,
		RetryBackoff:    backoff,
		RetryBudget:     1,
		BreakerFailures: 100, // keep the dead replicas' breakers out of it
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The survivor is the preferred owner of Nc's home shard, so the home
	// forward succeeds in one hop and leaves the budget to the scatter.
	survivor := rt.Placement().Owners(keycheck.ShardOf(modNc, 8))[0]
	for _, rep := range replicas {
		if rep.addr != survivor {
			rep.srv.Close()
		}
	}
	if !rt.budget.Take() {
		t.Fatal("fresh budget of 1 refused")
	}

	start := time.Now()
	v := rt.Check(ctx, modNc)
	elapsed := time.Since(start)
	if !v.Degraded || v.Status != keycheck.StatusClean {
		t.Fatalf("two dead replicas, spent budget: %+v, want a degraded clean", v)
	}
	// Jitter stretches one interval to at most 1.5x; sleeping out all
	// three would take at least 0.5 x (1 + 2 + 4) = 3.5 intervals.
	if elapsed >= 3*backoff {
		t.Errorf("degraded answer took %v, want about one %v backoff", elapsed, backoff)
	}
	if got := reg.Counter("cluster_retry_budget_exhausted_total").Value(); got != 1 {
		t.Errorf("cluster_retry_budget_exhausted_total = %d, want 1", got)
	}
}

// TestRouterHedgesStraggler stalls the preferred owner of N1's home
// shard past HedgeAfter: the forward is duplicated to the peer owner,
// whose answer decides (N1 is a factored member, so no scatter follows),
// and the straggler — cancelled by the router, not failed — is forgotten
// by its breaker.
func TestRouterHedgesStraggler(t *testing.T) {
	rt, replicas := newTestCluster(t, 3, 8, 2)
	p := rt.Placement()
	owners := p.Owners(keycheck.ShardOf(modN1, p.Shards()))
	stall := 3 * rt.cfg.HedgeAfter

	slow := replicaByAddr(t, replicas, owners[0])
	inner := slow.handler.load()
	slow.handler.store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/check" {
			select {
			case <-time.After(stall):
			case <-r.Context().Done():
			}
		}
		inner.ServeHTTP(w, r)
	}))

	start := time.Now()
	v := rt.Check(context.Background(), modN1)
	elapsed := time.Since(start)
	if v.Status != keycheck.StatusFactored || !v.Known || v.Degraded {
		t.Errorf("N1 behind a straggler = %+v degraded=%v, want factored/known", v.Verdict, v.Degraded)
	}
	if v.Replica != owners[1] || v.Hops != 2 {
		t.Errorf("answered by %s in %d hops, want the peer owner %s in 2", v.Replica, v.Hops, owners[1])
	}
	if elapsed < rt.cfg.HedgeAfter || elapsed >= stall {
		t.Errorf("answer took %v, want after the %v hedge and before the %v stall ends", elapsed, rt.cfg.HedgeAfter, stall)
	}
	if got := rt.hedges.Value(); got != 1 {
		t.Errorf("cluster_hedges_total = %d, want 1", got)
	}
	// The loser's request dies of the router's own cancel; once its
	// client has seen that, the breaker must hold nothing against it.
	loser := rt.Replica(owners[0])
	for deadline := time.Now().Add(2 * time.Second); loser.RequestFailures() < 1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	loser.Breaker.mu.Lock()
	state, failures := loser.Breaker.state, loser.Breaker.failures
	loser.Breaker.mu.Unlock()
	if state != BreakerClosed || failures != 0 || loser.Breaker.Opens() != 0 {
		t.Errorf("cancelled straggler's breaker: state %v, %d failures, %d opens; want it forgotten", state, failures, loser.Breaker.Opens())
	}
}

// TestRouterIngestFailover drives Router.ingest past dead owners: with
// the preferred owner of the home shard gone the batch lands on the peer
// alone, degraded because the primary missed its copy; with every owner
// gone the modulus comes back in Failed.
func TestRouterIngestFailover(t *testing.T) {
	rt, replicas := newTestCluster(t, 3, 8, 2)
	ctx := context.Background()
	p := rt.Placement()
	owners := p.Owners(keycheck.ShardOf(modNc, p.Shards()))
	hex := modNc.Text(16)

	replicaByAddr(t, replicas, owners[0]).srv.Close()
	resp := rt.ingest(ctx, []string{hex}, []*big.Int{modNc})
	if resp.DeltaModuli != 1 || !resp.Degraded || len(resp.Failed) != 0 {
		t.Fatalf("ingest with a dead primary = %+v, want one modulus landed on the peer, degraded", resp)
	}
	if _, ok := resp.Replicas[owners[1]]; !ok || len(resp.Replicas) != 1 {
		t.Errorf("reports from %v, want only the peer owner %s", resp.Replicas, owners[1])
	}
	if v := replicaByAddr(t, replicas, owners[1]).svc.Index().Snapshot().Check(modNc); !v.Known {
		t.Errorf("peer owner does not index the ingested key: %+v", v)
	}

	replicaByAddr(t, replicas, owners[1]).srv.Close()
	resp = rt.ingest(ctx, []string{hex}, []*big.Int{modNc})
	if !resp.Degraded || len(resp.Failed) != 1 || resp.Failed[0] != hex || resp.DeltaModuli != 0 {
		t.Errorf("ingest with every owner dead = %+v, want the modulus in Failed", resp)
	}
	if got := rt.metrics.Counter("cluster_ingest_failed_moduli_total").Value(); got != 1 {
		t.Errorf("cluster_ingest_failed_moduli_total = %d, want 1", got)
	}
}

// TestRouterEchoesRequestID checks that the router's routes carry the
// request's correlation ID: an inbound X-Request-Id comes back on a 200
// and on a 400 (in the error body too), and a request without one gets
// a minted ID.
func TestRouterEchoesRequestID(t *testing.T) {
	rt, _ := newTestCluster(t, 3, 8, 2)
	mux := rt.Mux()
	for _, tc := range []struct {
		body, id string
		code     int
	}{
		{`{"modulus_hex":"` + modN1.Text(16) + `"}`, "caller-7", http.StatusOK},
		{`{}`, "caller-8", http.StatusBadRequest},
		{`garbage`, "", http.StatusBadRequest},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(tc.body))
		if tc.id != "" {
			req.Header.Set("X-Request-Id", tc.id)
		}
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, req)
		got := rr.Header().Get("X-Request-Id")
		if rr.Code != tc.code || got == "" || tc.id != "" && got != tc.id {
			t.Errorf("%s with X-Request-Id %q: %d, X-Request-Id %q; want %d and the inbound or a minted ID",
				tc.body, tc.id, rr.Code, got, tc.code)
		}
		var reply struct {
			RequestID string `json:"request_id"`
		}
		if tc.code != http.StatusOK && (json.Unmarshal(rr.Body.Bytes(), &reply) != nil || reply.RequestID != got) {
			t.Errorf("%s: error body %s does not repeat X-Request-Id %q", tc.body, rr.Body, got)
		}
	}
}
