package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/big"
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
	// Hops counts replica requests spent on this answer (1 for the
	// factored-member fast path; more for scatter, retries and hedges).
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
	// Seed seeds the retry jitter (0 selects 1).
	Seed int64
	// Metrics / Events receive router telemetry (nil disables).
	Metrics *telemetry.Registry
	Events  *telemetry.EventLog
}

// Router forwards key checks to the replicas owning the relevant
// shards. A modulus the home-shard owner already knows compromised is
// answered in one hop; everything else — novel moduli and clean corpus
// members alike — is scatter-gathered across owners of every shard so
// the full-corpus GCD sweep still happens, just distributed. Owner
// failures retry against placement peers with backoff, stragglers are
// hedged, and when a shard has no reachable owner left the router
// degrades the verdict instead of erroring.
type Router struct {
	placement *Placement
	replicas  map[string]*Replica
	cfg       RouterConfig
	budget    *retry.Budget
	jitter    *retry.Jitter

	metrics *telemetry.Registry
	events  *telemetry.EventLog

	hedges   *telemetry.Counter
	degraded *telemetry.Counter
}

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
		// "-retries=-1" meaning "no retries" rather than "no rounds at
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
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rt := &Router{
		placement: p,
		replicas:  make(map[string]*Replica, len(cfg.Replicas)),
		cfg:       cfg,
		jitter:    retry.NewJitter(seed),
		metrics:   cfg.Metrics,
		events:    cfg.Events,
		hedges:    cfg.Metrics.Counter("cluster_hedges_total"),
		degraded:  cfg.Metrics.Counter("cluster_degraded_verdicts_total"),
	}
	if cfg.RetryBudget > 0 {
		rt.budget = retry.NewBudget(cfg.RetryBudget)
	}
	for _, addr := range cfg.Replicas {
		r := NewReplica(addr, cfg.RequestTimeout)
		r.Breaker.Threshold = cfg.BreakerFailures
		r.Breaker.Cooldown = cfg.BreakerCooldown
		rt.replicas[addr] = r
	}
	return rt, nil
}

// Placement returns the router's shard→replica map.
func (rt *Router) Placement() *Placement { return rt.placement }

// Replica returns the client for a placement name (nil if unknown).
func (rt *Router) Replica(name string) *Replica { return rt.replicas[name] }

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
	for _, addr := range rt.placement.Replicas() {
		r := rt.replicas[addr]
		was := r.Healthy()
		ok := r.Probe(ctx, rt.cfg.ProbeTimeout)
		if !ok {
			rt.metrics.Counter(`cluster_probe_failures_total{replica="` + addr + `"}`).Inc()
		}
		if ok != was {
			rt.events.Info(ctx, "replica health changed",
				slog.String("replica", addr),
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
	rt.metrics.Counter(`cluster_forward_total{replica="` + r.Name + `"}`).Inc()
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
// preference preserved within each half), skipping names in skip.
func (rt *Router) orderedOwners(s int, skip map[string]bool) []*Replica {
	var usable, rest []*Replica
	for _, name := range rt.placement.Owners(s) {
		if skip[name] {
			continue
		}
		r := rt.replicas[name]
		if r.Usable() {
			usable = append(usable, r)
		} else {
			rest = append(rest, r)
		}
	}
	return append(usable, rest...)
}

// Check routes one validated modulus. The fast path is a single forward
// to the modulus's home-shard owner, definitive only when that owner
// already knows the key compromised. Everything else — novel moduli and
// clean-so-far corpus members alike — scatter-gathers across owners of
// every other shard so the GCD sweep covers the whole corpus: replica
// ingests only GCD a delta against their own owned shards, so a member
// clean at its home owner can still share a prime with a key homed in a
// shard that owner does not hold.
func (rt *Router) Check(ctx context.Context, n *big.Int) RoutedVerdict {
	hex := n.Text(16)
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
		return out
	}

	// Clean member, novel modulus, or no home answer at all: the GCD
	// sweep needs every shard's product, so gather coverage from owners
	// of the shards the home answer didn't span.
	need := make(map[int]bool, rt.placement.Shards())
	for s := 0; s < rt.placement.Shards(); s++ {
		need[s] = true
	}
	if homeRes != nil {
		for _, s := range rt.placement.OwnedBy(homeRes.replica) {
			delete(need, s)
		}
	}
	results, scatterHops := rt.scatter(ctx, hex, need)
	hops += scatterHops

	out := rt.combine(n, home, homeRes, results, need)
	out.Hops = hops
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
	candidates := rt.orderedOwners(home, nil)
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

// cover is the router's one retry loop: backoff rounds until an owner
// has answered for every shard in need, or the rounds, the retry budget
// or ctx run out. Each round picks, per needed shard, the first owner
// that has not failed it yet — a failure rotates to a placement peer
// instead of hammering the same dead owner, and once every owner of a
// shard has failed its slate is wiped (transient weather may have
// passed) — groups the shards by chosen replica and calls the replicas
// concurrently, each admitted by its breaker before and settled after.
// call makes one request for the shards r was chosen for, on its own
// goroutine, and returns the shards the reply covers. Shards still in
// need on return had no answering owner. Returns the requests sent.
func (rt *Router) cover(ctx context.Context, cause string, need map[int]bool, call func(r *Replica, shards []int) ([]int, *replicaError)) int {
	type outcome struct {
		r      *Replica
		covers []int
		rerr   *replicaError
	}
	hops := 0
	backoff := rt.cfg.RetryBackoff
	failed := make(map[int]map[string]bool) // shard -> owners that failed this cover
	fail := func(r *Replica) {
		for _, s := range rt.placement.OwnedBy(r.Name) {
			if !need[s] {
				continue
			}
			if failed[s] == nil {
				failed[s] = make(map[string]bool)
			}
			failed[s][r.Name] = true
		}
	}
	spent := false // the retry budget refused: nothing more can be sent
	for round := 0; round <= rt.cfg.Retries && len(need) > 0 && !spent; round++ {
		if round > 0 {
			select {
			case <-time.After(rt.jitter.Jitter(backoff)):
			case <-ctx.Done():
				// The caller is gone; further rounds would only issue
				// doomed requests.
				return hops
			}
			backoff = retry.DoubleBackoff(backoff, 2*time.Second)
		}
		// One request per replica covers every needed shard it was
		// chosen for.
		targets := make(map[*Replica][]int)
		for s := range need {
			if len(failed[s]) >= len(rt.placement.Owners(s)) {
				failed[s] = nil
			}
			if owners := rt.orderedOwners(s, failed[s]); len(owners) > 0 {
				targets[owners[0]] = append(targets[owners[0]], s)
			}
		}
		ch := make(chan outcome, len(targets))
		sent := 0
		for r, shards := range targets {
			// The breaker goes first: a request it refuses costs no
			// retry budget.
			if !r.Breaker.Allow() {
				fail(r)
				continue
			}
			if round > 0 && !rt.retryable(cause) {
				r.Breaker.Forget()
				spent = true
				break
			}
			rt.metrics.Counter(`cluster_forward_total{replica="` + r.Name + `"}`).Inc()
			sent++
			go func(r *Replica, shards []int) {
				covers, rerr := call(r, shards)
				rt.settle(r, rerr)
				ch <- outcome{r, covers, rerr}
			}(r, shards)
		}
		hops += sent
		for ; sent > 0; sent-- {
			o := <-ch
			if o.rerr != nil {
				fail(o.r)
				continue
			}
			for _, s := range o.covers {
				delete(need, s)
			}
		}
	}
	return hops
}

// scatter gathers verdicts from owners covering the shards in need: one
// answer vouches for every shard its replica owns.
func (rt *Router) scatter(ctx context.Context, hex string, need map[int]bool) ([]*checkResult, int) {
	var mu sync.Mutex
	var results []*checkResult
	hops := rt.cover(ctx, "scatter", need, func(r *Replica, _ []int) ([]int, *replicaError) {
		res, rerr := r.Check(ctx, hex)
		if rerr != nil {
			return nil, rerr
		}
		mu.Lock()
		results = append(results, res)
		mu.Unlock()
		return rt.placement.OwnedBy(r.Name), nil
	})
	return results, hops
}

// combine folds the gathered partial verdicts into one answer. Any
// owner finding a shared prime decides compromised (preferring answers
// that recovered the full factorization); membership comes only from
// the home-shard owner; leftover uncovered shards degrade the verdict.
func (rt *Router) combine(n *big.Int, home int, homeRes *checkResult, results []*checkResult, need map[int]bool) RoutedVerdict {
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
	if len(need) > 0 {
		out.Degraded = true
		out.UnreachableShards = make([]int, 0, len(need))
		for s := range need {
			out.UnreachableShards = append(out.UnreachableShards, s)
		}
		sort.Ints(out.UnreachableShards)
	}
	// Partial was the replicas' own disclosure; at the router level the
	// Degraded field carries it.
	out.Partial = false
	return out
}

// ingestResponse is the router's POST /v1/ingest document: the summed
// counters plus each replica's own report.
type ingestResponse struct {
	DeltaModuli int                              `json:"delta_moduli"`
	Duplicates  int                              `json:"duplicates"`
	NewFactored int                              `json:"new_factored"`
	Refactored  int                              `json:"refactored"`
	Degraded    bool                             `json:"degraded,omitempty"`
	Failed      []string                         `json:"failed_moduli_hex,omitempty"`
	Replicas    map[string]keycheck.IngestReport `json:"replicas,omitempty"`
}

// ingest routes each modulus to an owner of its home shard and merges
// the reports. Replication peers receive the delta through the sync
// protocol, not from the router — one authoritative landing per key,
// then anti-entropy. An owner's reply covers only the shards whose
// moduli it was sent; moduli with no reachable owner come back in Failed
// with Degraded set.
func (rt *Router) ingest(ctx context.Context, moduliHex []string, mods []*big.Int) ingestResponse {
	resp := ingestResponse{Replicas: make(map[string]keycheck.IngestReport)}
	byShard := make(map[int][]string) // home shard -> its moduli
	need := make(map[int]bool)
	for i, n := range mods {
		s := keycheck.ShardOf(n, rt.placement.Shards())
		byShard[s] = append(byShard[s], moduliHex[i])
		need[s] = true
	}
	var mu sync.Mutex
	rt.cover(ctx, "ingest", need, func(r *Replica, shards []int) ([]int, *replicaError) {
		var batch []string
		for _, s := range shards {
			batch = append(batch, byShard[s]...)
		}
		rep, rerr := r.Ingest(ctx, batch)
		if rerr != nil {
			return nil, rerr
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
		resp.DeltaModuli += rep.DeltaModuli
		resp.Duplicates += rep.Duplicates
		resp.NewFactored += rep.NewFactored
		resp.Refactored += rep.Refactored
		return shards, nil
	})
	for s := range need {
		resp.Failed = append(resp.Failed, byShard[s]...)
	}
	if len(resp.Failed) > 0 {
		resp.Degraded = true
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
	for _, name := range rt.placement.Replicas() {
		r := rt.replicas[name]
		st.Replicas = append(st.Replicas, replicaStatus{
			Name:            name,
			Healthy:         r.Healthy(),
			Breaker:         r.Breaker.State().String(),
			BreakerOpens:    r.Breaker.Opens(),
			ProbeFailures:   r.ProbeFailures(),
			RequestFailures: r.RequestFailures(),
			OwnedShards:     rt.placement.OwnedBy(name),
		})
	}
	st.UncoveredShards = rt.placement.Uncovered(func(name string) bool {
		return rt.replicas[name].Usable()
	})
	return st
}

// Mux returns the router's HTTP routes:
//
//	POST /v1/check       route one modulus/certificate check
//	POST /v1/ingest      route new moduli to their home-shard owners
//	GET  /v1/exemplars   proxied from any usable replica
//	GET  /cluster/status placement, per-replica health and breakers
//	GET  /healthz        router process liveness
//	GET  /readyz         200 only when every shard has a usable owner
func (rt *Router) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/check", rt.withRequestID(rt.handleCheck))
	mux.HandleFunc("/v1/ingest", rt.withRequestID(rt.handleIngest))
	mux.HandleFunc("/v1/exemplars", rt.withRequestID(rt.handleExemplars))
	mux.HandleFunc("/cluster/status", rt.handleStatus)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if uncovered := rt.placement.Uncovered(func(name string) bool { return rt.replicas[name].Usable() }); len(uncovered) > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "uncovered shards: %v\n", uncovered)
			return
		}
		w.Write([]byte("ready\n"))
	})
	return mux
}

func (rt *Router) withRequestID(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, _ := telemetry.HTTPRequestID(r)
		w.Header().Set("X-Request-Id", id)
		h(w, r.WithContext(telemetry.ContextWithRequestID(r.Context(), id)))
	}
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
	for _, name := range rt.placement.Replicas() {
		rep := rt.replicas[name]
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
