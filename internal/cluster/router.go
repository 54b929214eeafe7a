package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/big"
	"math/bits"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/factorable/weakkeys/internal/keycheck"
	"github.com/factorable/weakkeys/internal/retry"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// RoutedVerdict is the router's answer for one modulus: the replica
// verdict plus the routing disclosure. When every shard owner was
// reachable the verdict agrees with a single full-corpus process on
// compromise: the same keys come back compromised, though one a single
// process would have pre-factored at ingest time may surface here as
// shared_factor until sync converges the replicas' factored maps. When
// owners were down the router degrades instead of failing, answers from
// the coverage it has, and says so.
type RoutedVerdict struct {
	keycheck.Verdict
	// Replica names the replica whose verdict decided the answer.
	Replica string `json:"replica,omitempty"`
	// Hops counts replica requests spent on this answer: 0 for a
	// factored member the router remembers, 1 for the factored-member
	// fast path, more for scatter, retries and hedges.
	Hops int `json:"hops"`
	// Degraded marks an answer computed without full shard coverage: a
	// clean verdict here means "clean as far as the reachable corpus
	// knows", not clean. Compromised verdicts are definitive regardless.
	Degraded bool `json:"degraded,omitempty"`
	// UnreachableShards lists the shards no owner could answer for.
	UnreachableShards []int `json:"unreachable_shards,omitempty"`
}

// RouterConfig configures NewRouter. Zero values select the defaults
// noted per field.
type RouterConfig struct {
	// Replicas is the ordered replica address list (required; the order
	// must match what the replicas themselves were started with, since
	// placement is computed from it).
	Replicas []string
	// Shards is the cluster-wide shard count (default
	// keycheck.DefaultShards). Must match the replicas' shard count.
	Shards int
	// Replication is the placement replication factor (default
	// DefaultReplication, clamped to the replica count).
	Replication int
	// RequestTimeout bounds one replica round trip (default 10s).
	RequestTimeout time.Duration
	// Retries is how many extra scatter rounds a failed shard gets
	// (default 3; negative selects none — the initial attempt still
	// runs).
	Retries int
	// RetryBackoff is the first inter-round delay, doubled per round
	// with ±50% jitter (default 50ms).
	RetryBackoff time.Duration
	// RetryBudget caps retry requests across the router's lifetime: a
	// flapping replica cannot amplify every incoming check into
	// unbounded internal traffic. 0 selects 10000; negative disables.
	RetryBudget int64
	// HedgeAfter is how long the home forward waits before duplicating
	// the request to the next owner (default 250ms; negative disables).
	HedgeAfter time.Duration
	// ProbeInterval / ProbeTimeout drive the background health prober
	// (defaults 500ms / 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// BreakerFailures / BreakerCooldown configure each replica's
	// circuit breaker (defaults per Breaker).
	BreakerFailures int
	BreakerCooldown time.Duration
	// Metrics / Events receive router telemetry (nil disables).
	Metrics *telemetry.Registry
	Events  *telemetry.EventLog
}

// Router forwards key checks to the replicas owning the relevant
// shards. A factored corpus member it has already been told about is
// answered from its memo, with no hop; a modulus the home-shard owner
// already knows compromised is answered in one hop; everything else —
// novel moduli and clean corpus members alike — is scatter-gathered across owners of every shard so
// the full-corpus GCD sweep still happens, just distributed. Owner
// failures retry against placement peers with backoff, stragglers are
// hedged, and when a shard has no reachable owner left the router
// degrades the verdict instead of erroring.
type Router struct {
	placement *Placement
	replicas  []*Replica // in placement list order
	cfg       RouterConfig
	budget    *retry.Budget
	jitter    *retry.Jitter
	memo      *memo

	metrics *telemetry.Registry
	events  *telemetry.EventLog

	hedges    *telemetry.Counter
	degraded  *telemetry.Counter
	memoHits  *telemetry.Counter
	checkHops *telemetry.Histogram
}

// hopBuckets is the cluster_check_hops layout: zero hops is a memo
// answer, one a factored member's home answer, two a home answer plus a
// one-replica scatter; retries and hedges add the rest.
var hopBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16}

// NewRouter computes the placement and builds a replica client per
// address.
func NewRouter(cfg RouterConfig) (*Router, error) {
	shards := cfg.Shards
	if shards <= 0 {
		shards = keycheck.DefaultShards
	}
	p, err := NewPlacement(cfg.Replicas, shards, cfg.Replication)
	if err != nil {
		return nil, err
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 3
	} else if cfg.Retries < 0 {
		// Round 0 is the initial attempt, not a retry: clamping keeps
		// Retries: -1 meaning "no retries" rather than "no rounds at
		// all" (which would degrade every verdict and fail every
		// ingest).
		cfg.Retries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 250 * time.Millisecond
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 10000
	}
	rt := &Router{
		placement: p,
		replicas:  make([]*Replica, 0, len(cfg.Replicas)),
		cfg:       cfg,
		jitter:    retry.NewJitter(1),
		memo:      newMemo(),
		metrics:   cfg.Metrics,
		events:    cfg.Events,
		hedges:    cfg.Metrics.Counter("cluster_hedges_total"),
		degraded:  cfg.Metrics.Counter("cluster_degraded_verdicts_total"),
		memoHits:  cfg.Metrics.Counter("cluster_memo_hits_total"),
		checkHops: cfg.Metrics.Histogram("cluster_check_hops", hopBuckets),
	}
	if cfg.RetryBudget > 0 {
		rt.budget = retry.NewBudget(cfg.RetryBudget)
	}
	for _, addr := range cfg.Replicas {
		r := NewReplica(addr, cfg.RequestTimeout)
		r.Breaker.Threshold = cfg.BreakerFailures
		r.Breaker.Cooldown = cfg.BreakerCooldown
		r.forwards = cfg.Metrics.Counter(`cluster_forward_total{replica="` + addr + `"}`)
		rt.replicas = append(rt.replicas, r)
	}
	return rt, nil
}

// Placement returns the router's shard→replica map.
func (rt *Router) Placement() *Placement { return rt.placement }

// Replica returns the client for a placement name (nil if unknown).
func (rt *Router) Replica(name string) *Replica {
	if i, ok := rt.placement.index[name]; ok {
		return rt.replicas[i]
	}
	return nil
}

// usable reports whether the named replica would be admitted for new
// traffic (Placement.Uncovered's predicate).
func (rt *Router) usable(name string) bool { return rt.Replica(name).Usable() }

// Start probes every replica once synchronously — replicas default to
// healthy, and /readyz must not claim coverage the first probe round
// would retract — then launches the periodic health-probe loop, which
// stops when ctx is done. The prober keeps every replica's readiness
// view fresh so selection can skip dead replicas before burning a
// request timeout on them.
func (rt *Router) Start(ctx context.Context) {
	rt.probeAll(ctx)
	go func() {
		tick := time.NewTicker(rt.cfg.ProbeInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				rt.probeAll(ctx)
			case <-ctx.Done():
				return
			}
		}
	}()
}

func (rt *Router) probeAll(ctx context.Context) {
	for _, r := range rt.replicas {
		was := r.Healthy()
		ok := r.Probe(ctx, rt.cfg.ProbeTimeout)
		if !ok {
			rt.metrics.Counter(`cluster_probe_failures_total{replica="` + r.Name + `"}`).Inc()
		}
		if ok != was {
			rt.events.Info(ctx, "replica health changed",
				slog.String("replica", r.Name),
				slog.Bool("ready", ok))
		}
	}
}

// send performs one breaker-gated check against r and settles the
// breaker with the outcome. A cancellation caused by the router itself
// (hedge race lost, caller gone) is forgotten rather than held against
// the replica.
func (rt *Router) send(ctx context.Context, r *Replica, hex string) (*checkResult, *replicaError) {
	if !r.Breaker.Allow() {
		return nil, &replicaError{replica: r.Name, cause: "breaker-open", transient: true,
			err: fmt.Errorf("cluster: replica %s: circuit open", r.Name)}
	}
	r.forwards.Inc()
	res, rerr := r.Check(ctx, hex)
	rt.settle(r, rerr)
	return res, rerr
}

// settle reports a request outcome to the replica's breaker, counting
// open transitions into the metrics.
func (rt *Router) settle(r *Replica, rerr *replicaError) {
	if rerr != nil && rerr.cause == retry.CauseCanceled {
		r.Breaker.Forget()
		return
	}
	before := r.Breaker.Opens()
	r.Breaker.Report(rerr == nil)
	if r.Breaker.Opens() > before {
		rt.metrics.Counter(`cluster_breaker_opens_total{replica="` + r.Name + `"}`).Inc()
		rt.events.Warn(context.Background(), "replica breaker opened",
			slog.String("replica", r.Name),
			slog.String("cause", rerr.cause))
	}
}

// retryable spends one unit of the retry budget; when the budget is
// exhausted the shard is left for the degraded disclosure rather than
// amplified into more traffic.
func (rt *Router) retryable(cause string) bool {
	if rt.budget != nil && !rt.budget.Take() {
		rt.metrics.Counter("cluster_retry_budget_exhausted_total").Inc()
		return false
	}
	rt.metrics.Counter(`cluster_retries_total{cause="` + cause + `"}`).Inc()
	return true
}

// orderedOwners returns shard s's owners, usable ones first (placement
// preference preserved within each half).
func (rt *Router) orderedOwners(s int) []*Replica {
	var usable, rest []*Replica
	for _, i := range rt.placement.ownerIndex[s] {
		r := rt.replicas[i]
		if r.Usable() {
			usable = append(usable, r)
		} else {
			rest = append(rest, r)
		}
	}
	return append(usable, rest...)
}

// Check routes one validated modulus. A factored member whose home
// answer the router remembers takes no hop at all. Otherwise the fast
// path is a single forward to the modulus's home-shard owner,
// definitive only when that owner already knows the key compromised.
// Everything else — novel moduli and clean-so-far corpus members alike
// — scatter-gathers across owners of
// every other shard so the GCD sweep covers the whole corpus: replica
// ingests only GCD a delta against their own owned shards, so a member
// clean at its home owner can still share a prime with a key homed in a
// shard that owner does not hold.
func (rt *Router) Check(ctx context.Context, n *big.Int) RoutedVerdict {
	hex := n.Text(16)
	if out, ok := rt.memo.get(hex); ok {
		// A factored member's verdict is final, and a compromised verdict
		// needs no coverage, so the remembered answer is the answer.
		rt.memoHits.Inc()
		rt.checkHops.Observe(0)
		return out
	}
	home := keycheck.ShardOf(n, rt.placement.Shards())
	hops := 0

	// Home forward, hedged across the home shard's owners.
	homeRes, attempts := rt.forwardHome(ctx, home, hex)
	hops += attempts

	if homeRes != nil && homeRes.verdict.Compromised() {
		// A compromised verdict is definitive regardless of coverage:
		// the factorization (or divisor) is already in hand. A clean
		// member answer is NOT — membership is the home shard's call,
		// but post-build ingests land on per-shard owners, so only the
		// full scatter below proves no reachable shard holds a mate.
		out := RoutedVerdict{Verdict: homeRes.verdict, Replica: homeRes.replica, Hops: hops}
		out.Partial = false
		rt.checkHops.Observe(float64(hops))
		if out.Known && out.Status == keycheck.StatusFactored {
			// Only a factored member is final: a novel key's compromised
			// verdict turns Known once it is ingested.
			memoed := out
			memoed.Hops = 0
			rt.memo.put(hex, memoed)
		}
		return out
	}

	// Clean member, novel modulus, or no home answer at all: the GCD
	// sweep needs every shard's product, so gather coverage from owners
	// of the shards the home answer didn't span.
	need := rt.placement.allShards()
	if homeRes != nil {
		need &^= rt.placement.maskOf(homeRes.replica)
	}
	results, left, scatterHops := rt.scatter(ctx, hex, need)
	hops += scatterHops

	out := rt.combine(n, home, homeRes, results, left)
	out.Hops = hops
	rt.checkHops.Observe(float64(hops))
	if out.Degraded {
		rt.degraded.Inc()
		rt.events.Warn(ctx, "degraded verdict",
			slog.String("status", string(out.Status)),
			slog.Int("unreachable_shards", len(out.UnreachableShards)))
	}
	return out
}

// forwardHome races the home shard's owners: the preferred owner first,
// the next hedged in after HedgeAfter (a backup request: a straggling
// replica shouldn't hold the answer hostage when a peer holds the same
// shard), and failed attempts failing over to
// remaining owners. Returns the first success and the attempt count.
func (rt *Router) forwardHome(ctx context.Context, home int, hex string) (*checkResult, int) {
	candidates := rt.orderedOwners(home)
	if len(candidates) == 0 {
		return nil, 0
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		res  *checkResult
		rerr *replicaError
	}
	resc := make(chan outcome, len(candidates))
	launched := 0
	launch := func() {
		r := candidates[launched]
		launched++
		go func() {
			res, rerr := rt.send(ctx, r, hex)
			resc <- outcome{res, rerr}
		}()
	}
	launch()

	var hedgeC <-chan time.Time
	if rt.cfg.HedgeAfter > 0 && len(candidates) > 1 {
		t := time.NewTimer(rt.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	pending := 1
	for pending > 0 {
		select {
		case o := <-resc:
			pending--
			if o.rerr == nil {
				return o.res, launched
			}
			// Transient failures fail over to the next owner; a
			// permanent one would fail identically there.
			if o.rerr.transient && launched < len(candidates) && rt.retryable(o.rerr.cause) {
				launch()
				pending++
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < len(candidates) {
				rt.hedges.Inc()
				launch()
				pending++
			}
		case <-ctx.Done():
			return nil, launched
		}
	}
	return nil, launched
}

// cover is the router's one retry loop: backoff rounds until the shards
// in need are answered for, or the rounds, the retry budget or ctx run
// out. A check shard is answered for once one owner has answered; with
// all set (an ingest) it takes every live owner. Each round is
// Placement.pickRound's choice — for a check the fewest replicas whose
// owned shards cover what is still needed; a failure rotates the
// shards to placement peers instead of hammering the same dead owner —
// and each chosen replica gets one request, admitted by its breaker
// before and settled after. A round with one target calls it on the
// calling goroutine, more call concurrently. call makes one request for
// the shards replica i was asked for and returns the shards the reply
// answers for. Returns, per replica in placement order, the shards it
// answered for, and the requests sent.
func (rt *Router) cover(ctx context.Context, cause string, need uint64, all bool, call func(i int, shards uint64) (uint64, *replicaError)) ([]uint64, int) {
	type outcome struct {
		i      int
		covers uint64
		rerr   *replicaError
	}
	n := len(rt.replicas)
	acked := make([]uint64, n)
	failed := make([]uint64, n) // needed shards each replica failed this cover
	usable := make([]bool, n)
	fail := func(i int) { failed[i] |= rt.placement.ownedMask[i] & need }
	apply := func(o outcome) {
		if o.rerr != nil {
			fail(o.i)
			return
		}
		acked[o.i] |= o.covers
		if !all {
			need &^= o.covers
		}
	}
	hops := 0
	backoff := rt.cfg.RetryBackoff
	spent := false // the retry budget refused: nothing more can be sent
	for round := 0; round <= rt.cfg.Retries && need != 0 && !spent; round++ {
		if round > 0 {
			select {
			case <-time.After(rt.jitter.Jitter(backoff)):
			case <-ctx.Done():
				// The caller is gone; further rounds would only issue
				// doomed requests.
				return acked, hops
			}
			backoff = retry.DoubleBackoff(backoff, 2*time.Second)
		}
		for i, r := range rt.replicas {
			usable[i] = r.Usable()
		}
		ask, done := rt.placement.pickRound(need, all, usable, failed, acked)
		need &^= done
		var sent []int
		for i, shards := range ask {
			if shards == 0 {
				continue
			}
			r := rt.replicas[i]
			// The breaker goes first: a request it refuses costs no
			// retry budget.
			if !r.Breaker.Allow() {
				fail(i)
				continue
			}
			if round > 0 && !rt.retryable(cause) {
				r.Breaker.Forget()
				spent = true
				break
			}
			r.forwards.Inc()
			sent = append(sent, i)
		}
		hops += len(sent)
		do := func(i int) outcome {
			covers, rerr := call(i, ask[i])
			rt.settle(rt.replicas[i], rerr)
			return outcome{i, covers, rerr}
		}
		if len(sent) == 1 {
			apply(do(sent[0]))
		} else if len(sent) > 1 {
			ch := make(chan outcome, len(sent))
			for _, i := range sent {
				go func() { ch <- do(i) }()
			}
			for range sent {
				apply(<-ch)
			}
		}
		if all {
			var owed uint64
			for i, a := range acked {
				owed |= rt.placement.ownedMask[i] &^ a
			}
			need &= owed
		}
	}
	return acked, hops
}

// scatter gathers verdicts from owners covering the shards in need: one
// answer vouches for every shard its replica owns. Returns the verdicts,
// the shards no owner answered for, and the requests sent.
func (rt *Router) scatter(ctx context.Context, hex string, need uint64) ([]*checkResult, uint64, int) {
	var mu sync.Mutex
	var results []*checkResult
	acked, hops := rt.cover(ctx, "scatter", need, false, func(i int, _ uint64) (uint64, *replicaError) {
		res, rerr := rt.replicas[i].Check(ctx, hex)
		if rerr != nil {
			return 0, rerr
		}
		mu.Lock()
		results = append(results, res)
		mu.Unlock()
		return rt.placement.ownedMask[i], nil
	})
	for _, a := range acked {
		need &^= a
	}
	return results, need, hops
}

// combine folds the gathered partial verdicts into one answer. Any
// owner finding a shared prime decides compromised (preferring answers
// that recovered the full factorization); membership comes only from
// the home-shard owner; leftover uncovered shards degrade the verdict.
func (rt *Router) combine(n *big.Int, home int, homeRes *checkResult, results []*checkResult, left uint64) RoutedVerdict {
	var out RoutedVerdict
	if homeRes != nil {
		out.Verdict = homeRes.verdict
		out.Replica = homeRes.replica
	} else {
		out.Verdict = keycheck.Verdict{
			Status:      keycheck.StatusClean,
			ModulusBits: n.BitLen(),
			Shard:       home,
		}
	}
	better := func(v keycheck.Verdict) bool {
		if !v.Compromised() {
			return false
		}
		if !out.Compromised() {
			return true
		}
		// Among compromised answers, a recovered factorization beats a
		// bare divisor, and factored (exact-map) beats on-the-spot.
		if (v.FactorP != "") != (out.FactorP != "") {
			return v.FactorP != ""
		}
		return v.Status == keycheck.StatusFactored && out.Status != keycheck.StatusFactored
	}
	for _, res := range results {
		adopt := better(res.verdict)
		if !adopt && res.verdict.Status == keycheck.StatusSharedModulus && out.Status == keycheck.StatusClean {
			// A replication peer of the home shard holds the same
			// shared-modulus graph; when the preferred owner's answer was
			// lost, the peer's anomaly verdict still beats clean. A
			// compromised answer from any owner continues to outrank it.
			adopt = true
		}
		if adopt {
			known := out.Known
			out.Verdict = res.verdict
			out.Known = known // membership stays the home owner's call
			out.Shard = home
			out.Replica = res.replica
		}
	}
	if left != 0 {
		out.Degraded = true
		out.UnreachableShards = make([]int, 0, bits.OnesCount64(left))
		for ; left != 0; left &= left - 1 {
			out.UnreachableShards = append(out.UnreachableShards, bits.TrailingZeros64(left))
		}
	}
	// Partial was the replicas' own disclosure; at the router level the
	// Degraded field carries it.
	out.Partial = false
	return out
}

// ingestResponse is the router's POST /v1/ingest document: the
// counters, each modulus counted once, plus each replica's own report.
type ingestResponse struct {
	DeltaModuli int                              `json:"delta_moduli"`
	Duplicates  int                              `json:"duplicates"`
	NewFactored int                              `json:"new_factored"`
	Refactored  int                              `json:"refactored"`
	Degraded    bool                             `json:"degraded,omitempty"`
	Failed      []string                         `json:"failed_moduli_hex,omitempty"`
	Replicas    map[string]keycheck.IngestReport `json:"replicas,omitempty"`
}

// ingest writes each modulus to every live owner of its home shard —
// all of them, so a check's scatter may ask any one owner for the shard
// — and merges the reports. The top-level counters count each modulus
// and each re-labeled member once: per shard, the most any owner
// reported, since the owners of a shard index the same keys. Moduli no
// owner took come back in Failed; Degraded is set when some owner missed
// its copy, which its next sync pull delivers.
func (rt *Router) ingest(ctx context.Context, moduliHex []string, mods []*big.Int) ingestResponse {
	resp := ingestResponse{Replicas: make(map[string]keycheck.IngestReport)}
	byShard := make([][]string, rt.placement.Shards()) // home shard -> its distinct moduli
	seen := make(map[string]bool, len(mods))
	var need uint64
	for i, n := range mods {
		if key := string(n.Bytes()); !seen[key] {
			seen[key] = true
			s := keycheck.ShardOf(n, rt.placement.Shards())
			byShard[s] = append(byShard[s], moduliHex[i])
			need |= 1 << s
		}
	}
	var mu sync.Mutex
	perShard := make([][]keycheck.ShardIngest, len(rt.replicas)) // replica -> shard -> its reports' sum
	acked, _ := rt.cover(ctx, "ingest", need, true, func(i int, shards uint64) (uint64, *replicaError) {
		var batch []string
		for m := shards; m != 0; m &= m - 1 {
			batch = append(batch, byShard[bits.TrailingZeros64(m)]...)
		}
		r := rt.replicas[i]
		rep, rerr := r.Ingest(ctx, batch)
		if rerr != nil {
			return 0, rerr
		}
		mu.Lock()
		defer mu.Unlock()
		prev := resp.Replicas[r.Name]
		prev.DeltaModuli += rep.DeltaModuli
		prev.Duplicates += rep.Duplicates
		prev.NewFactored += rep.NewFactored
		prev.Refactored += rep.Refactored
		prev.Skipped += rep.Skipped
		prev.TouchedShards += rep.TouchedShards
		resp.Replicas[r.Name] = prev
		if perShard[i] == nil {
			perShard[i] = make([]keycheck.ShardIngest, rt.placement.Shards())
		}
		for _, sh := range rep.Shards {
			if sh.Shard >= 0 && sh.Shard < len(perShard[i]) {
				sum := &perShard[i][sh.Shard]
				sum.NewModuli += sh.NewModuli
				sum.NewFactored += sh.NewFactored
				sum.Refactored += sh.Refactored
			}
		}
		return shards, nil
	})
	for s := 0; s < rt.placement.Shards(); s++ {
		var most keycheck.ShardIngest // per counter, the most any owner reported
		for _, sums := range perShard {
			if sums != nil {
				most.NewModuli = max(most.NewModuli, sums[s].NewModuli)
				most.NewFactored = max(most.NewFactored, sums[s].NewFactored-sums[s].Refactored)
				most.Refactored = max(most.Refactored, sums[s].Refactored)
			}
		}
		resp.DeltaModuli += most.NewModuli
		resp.NewFactored += most.NewFactored
		resp.Refactored += most.Refactored
		if need&(1<<s) == 0 {
			continue
		}
		landed := 0
		for _, i := range rt.placement.ownerIndex[s] {
			if acked[i]&(1<<s) != 0 {
				landed++
			}
		}
		if landed < rt.placement.Replication() {
			resp.Degraded = true
		}
		if landed == 0 {
			resp.Failed = append(resp.Failed, byShard[s]...)
		} else {
			resp.Duplicates += len(byShard[s]) - most.NewModuli
		}
	}
	if len(resp.Failed) > 0 {
		sort.Strings(resp.Failed)
		rt.metrics.Counter("cluster_ingest_failed_moduli_total").Add(int64(len(resp.Failed)))
	}
	return resp
}

// replicaStatus is one replica's row in /cluster/status.
type replicaStatus struct {
	Name            string `json:"name"`
	Healthy         bool   `json:"healthy"`
	Breaker         string `json:"breaker"`
	BreakerOpens    int64  `json:"breaker_opens"`
	ProbeFailures   int64  `json:"probe_failures"`
	RequestFailures int64  `json:"request_failures"`
	OwnedShards     []int  `json:"owned_shards"`
}

// clusterStatus is the GET /cluster/status document.
type clusterStatus struct {
	Shards           int             `json:"shards"`
	Replication      int             `json:"replication"`
	Replicas         []replicaStatus `json:"replicas"`
	UncoveredShards  []int           `json:"uncovered_shards,omitempty"`
	RetryBudgetLeft  int64           `json:"retry_budget_left"`
	DegradedVerdicts int64           `json:"degraded_verdicts"`
	HedgedForwards   int64           `json:"hedged_forwards"`
}

// Status snapshots the cluster view for /cluster/status.
func (rt *Router) Status() clusterStatus {
	st := clusterStatus{
		Shards:           rt.placement.Shards(),
		Replication:      rt.placement.Replication(),
		DegradedVerdicts: rt.degraded.Value(),
		HedgedForwards:   rt.hedges.Value(),
	}
	if rt.budget != nil {
		st.RetryBudgetLeft = rt.budget.Remaining()
	} else {
		st.RetryBudgetLeft = -1
	}
	for _, r := range rt.replicas {
		st.Replicas = append(st.Replicas, replicaStatus{
			Name:            r.Name,
			Healthy:         r.Healthy(),
			Breaker:         r.Breaker.State().String(),
			BreakerOpens:    r.Breaker.Opens(),
			ProbeFailures:   r.ProbeFailures(),
			RequestFailures: r.RequestFailures(),
			OwnedShards:     rt.placement.OwnedBy(r.Name),
		})
	}
	st.UncoveredShards = rt.placement.Uncovered(rt.usable)
	return st
}

// Mux returns the router's HTTP routes:
//
//	POST /v1/check       route one modulus/certificate check
//	POST /v1/ingest      write new moduli to every owner of their home shards
//	GET  /v1/exemplars   proxied from any usable replica
//	GET  /cluster/status placement, per-replica health and breakers
//	GET  /healthz        router process liveness
//	GET  /readyz         200 only when every shard has a usable owner
func (rt *Router) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/check", telemetry.WithRequestID(rt.handleCheck))
	mux.HandleFunc("/v1/ingest", telemetry.WithRequestID(rt.handleIngest))
	mux.HandleFunc("/v1/exemplars", telemetry.WithRequestID(rt.handleExemplars))
	mux.HandleFunc("/cluster/status", rt.handleStatus)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if uncovered := rt.placement.Uncovered(rt.usable); len(uncovered) > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "uncovered shards: %v\n", uncovered)
			return
		}
		w.Write([]byte("ready\n"))
	})
	return mux
}

func (rt *Router) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeError(w, r, http.StatusMethodNotAllowed, errors.New("cluster: POST only"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxReplicaBody))
	if err != nil {
		rt.writeError(w, r, http.StatusBadRequest, fmt.Errorf("%w: %v", keycheck.ErrMalformed, err))
		return
	}
	n, e, err := keycheck.ParseSubmissionWithExponent(body)
	if err != nil {
		rt.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	out := rt.Check(r.Context(), n)
	// The exponent fold-in mirrors the replica HTTP layer: replicas only
	// ever see the modulus, so a routed clean verdict upgrades here when
	// the submission carried a broken public exponent.
	if uv := keycheck.ApplyExponent(out.Verdict, e); uv.Status != out.Status {
		rt.metrics.Counter(`cluster_checks_total{verdict="unsafe_exponent"}`).Inc()
		out.Verdict = uv
	}
	rt.writeJSON(w, http.StatusOK, out)
}

func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeError(w, r, http.StatusMethodNotAllowed, errors.New("cluster: POST only"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxReplicaBody))
	if err != nil {
		rt.writeError(w, r, http.StatusBadRequest, fmt.Errorf("%w: %v", keycheck.ErrMalformed, err))
		return
	}
	hexes, mods, err := keycheck.ParseIngest(body)
	if err != nil {
		rt.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	rt.writeJSON(w, http.StatusOK, rt.ingest(r.Context(), hexes, mods))
}

// handleExemplars proxies to the first usable replica; exemplars are a
// per-replica sample, good enough for smoke tests and load generators.
func (rt *Router) handleExemplars(w http.ResponseWriter, r *http.Request) {
	for _, rep := range rt.replicas {
		if !rep.Usable() {
			continue
		}
		status, raw, rerr := rep.Get(r.Context(), "/v1/exemplars?"+r.URL.RawQuery)
		if rerr != nil || status != http.StatusOK {
			continue
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(raw)
		return
	}
	rt.writeError(w, r, http.StatusServiceUnavailable, errors.New("cluster: no usable replica"))
}

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	rt.writeJSON(w, http.StatusOK, rt.Status())
}

func (rt *Router) writeJSON(w http.ResponseWriter, code int, v any) {
	rt.metrics.Counter(fmt.Sprintf(`cluster_http_requests_total{code="%d"}`, code)).Inc()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (rt *Router) writeError(w http.ResponseWriter, r *http.Request, code int, err error) {
	rt.events.Warn(r.Context(), "router request failed",
		slog.String("path", r.URL.Path),
		slog.Int("status", code),
		slog.String("error", err.Error()))
	rt.writeJSON(w, code, struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id,omitempty"`
	}{err.Error(), telemetry.RequestIDFrom(r.Context())})
}
