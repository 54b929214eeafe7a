package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"github.com/factorable/weakkeys/internal/anomaly"
	"github.com/factorable/weakkeys/internal/cluster"
	"github.com/factorable/weakkeys/internal/keycheck"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// streamLen is the length of a seeded request stream. It is far more
// than a run can send at today's rates, and a faster system that wraps
// it still sees every reuse distance multiplied by it.
const streamLen = 1 << 17

// pools are the corpus and novel keys grouped by what the service must
// answer for them, each in seeded order.
type pools [nClasses][]*request

func makePools(seed int64, corpus, novel []key) pools {
	var p pools
	for i := range corpus {
		c := memberClean
		if corpus[i].weak {
			c = memberFactored
		}
		p[c] = append(p[c], newRequest(&corpus[i], c))
	}
	for i := range novel {
		c := novelClean
		if novel[i].weak {
			c = novelShared
		}
		p[c] = append(p[c], newRequest(&novel[i], c))
	}
	rng := newRNG(seed, domainStream, 0)
	for _, reqs := range p {
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	}
	return p
}

// coldStream defeats the verdict cache on purpose: every class is
// walked without replacement, and the class shares are set so that even
// the smallest pool (the ~1% factored members) comes round again only
// after more requests than the 4,096-entry cache holds. 85% clean
// members, 5% factored members, 10% novel.
func coldStream(seed int64, p pools) []*request {
	rng := newRNG(seed, domainStream, 1)
	var at [nClasses]int
	take := func(c class) *request {
		r := p[c][at[c]%len(p[c])]
		at[c]++
		return r
	}
	novelAt := 0
	stream := make([]*request, streamLen)
	for i := range stream {
		switch u := rng.Float64(); {
		case u < 0.85:
			stream[i] = take(memberClean)
		case u < 0.90:
			stream[i] = take(memberFactored)
		default:
			// One novel submission in eight shares a prime with the corpus.
			if novelAt%8 == 0 {
				stream[i] = take(novelShared)
			} else {
				stream[i] = take(novelClean)
			}
			novelAt++
		}
	}
	return stream
}

// hotStream draws uniformly from a hot set small enough to live in every
// replica's cache: half clean members, a quarter factored members, a
// quarter novel (one in eight of those sharing a prime).
func hotStream(seed int64, p pools, hot int) []*request {
	set := append([]*request(nil), p[memberClean][:hot/2]...)
	set = append(set, p[memberFactored][:hot/4]...)
	set = append(set, p[novelShared][:hot/32]...)
	set = append(set, p[novelClean][:hot/4-hot/32]...)
	rng := newRNG(seed, domainStream, 2)
	stream := make([]*request, streamLen)
	for i := range stream {
		stream[i] = set[rng.Intn(len(set))]
	}
	return stream
}

// skew falsifies the ground truth of a stream's first request: a member
// is claimed novel and the reverse, so the right answer counts as wrong.
func skew(stream []*request) {
	r := *stream[0]
	r.class = (r.class + 2) % nClasses
	stream[0] = &r
}

func digestOf(stream []*request) string {
	hexes := make([]string, len(stream))
	for i, r := range stream {
		hexes[i] = r.key.hex
	}
	return streamDigest(hexes)
}

// serveInputs generates what the three serving workloads share.
func serveInputs(cfg config) (corpus []key, p pools, genS float64) {
	t0 := time.Now()
	corpus = genCorpus(cfg.seed, cfg.sizes.serveCorpus)
	novel := genNovel(cfg.seed, cfg.sizes.novelPool, corpus)
	p = makePools(cfg.seed, corpus, novel)
	return corpus, p, time.Since(t0).Seconds()
}

// measure sizes a closed loop to fill seconds: a warm-up tenth, the
// rest in equal windows.
func (spec *loadSpec) measure(seconds float64, windows int) {
	spec.warm = time.Duration(seconds / 10 * float64(time.Second))
	spec.windows = windows
	spec.window = time.Duration(seconds * 0.9 / float64(windows) * float64(time.Second))
}

// single is serve_cold's and scan_ingest's system: one full-snapshot
// service.
type single struct {
	node   *node
	a      *analysis
	buildS float64
}

func setupSingle(ctx context.Context, corpus []key) (*single, error) {
	a, err := analyze(ctx, moduliOf(corpus))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	snap, err := a.build(ctx, nil)
	if err != nil {
		return nil, err
	}
	buildS := time.Since(t0).Seconds()
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	s := &single{node: startNode(snap, ln, nil), a: a, buildS: buildS}
	hc := newClient()
	defer hc.CloseIdleConnections()
	if err := awaitReady(hc, s.node.url("/readyz")); err != nil {
		s.node.stop()
		return nil, err
	}
	return s, nil
}

func runServeCold(ctx context.Context, cfg config) (*result, error) {
	res := newResult(cfg, "closed", cfg.clients)
	corpus, p, genS := serveInputs(cfg)
	stream := coldStream(cfg.seed, p)
	if cfg.skewTruth {
		skew(stream)
	}
	res.Inputs["corpus"] = streamDigest(hexesOf(corpus))
	res.Inputs["stream"] = digestOf(stream)
	res.layer("bench.gen_s", genS, 1)

	sys, setupS, err := repeatSetup(cfg.sizes, func() (*single, error) { return setupSingle(ctx, corpus) }, func(s *single) { s.node.stop() })
	if err != nil {
		return nil, err
	}
	defer sys.node.stop()
	isNovel := func(r *request) bool { return r.class == novelClean || r.class == novelShared }
	spec := loadSpec{url: sys.node.url("/v1/check"), stream: stream, clients: cfg.clients, refSlice: cfg.sizes.refSlice, side: isNovel}

	if cfg.trace {
		tr := newTracing()
		res.layer("keycheck.build_s", sys.buildS, 1)
		if err := traceLoad(tr, res, spec, cfg.seconds/2, []*node{sys.node}); err != nil {
			return nil, err
		}
		// The onion gets a service of its own, so neither it nor the
		// loop above finds the other's keys in the verdict cache.
		fresh, err := setupSingle(ctx, corpus)
		if err != nil {
			return nil, err
		}
		defer fresh.node.stop()
		traceOnion(ctx, tr, res, fresh.node, p, cfg.sizes.onion)
		traceHot(ctx, tr, res, fresh.node, p[memberClean][0], cfg.sizes.onion)
		return res, tr.tracer.WriteFile(cfg.traceOut)
	}

	spec.measure(cfg.seconds, cfg.sizes.windows)
	load, err := runLoad(spec)
	if err != nil {
		return nil, err
	}
	attempted, failed := load.attempted()
	res.count(attempted, failed, load.firstErr)
	res.Metrics[mSetup] = setupS
	loadMetrics(res.Metrics, load, "check", "novel_check")
	res.Metrics[mRSS] = scalar("MB", peakRSSMB(), 1)
	return res, nil
}

// replicaBasePort is where routed_hot's replicas listen. Placement is a
// hash of the replica addresses, so ephemeral ports would give every
// run another shard map and another hop count; fixed ports keep the
// routed path the same from run to run. If the ports are taken the next
// free triple is used and the result says so.
const replicaBasePort = 21400

const nReplicas = 3

func listenReplicas() ([]net.Listener, error) {
	var lastErr error
	for base := replicaBasePort; base < replicaBasePort+300; base += nReplicas {
		var lns []net.Listener
		for i := 0; i < nReplicas; i++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
			if err != nil {
				lastErr = err
				break
			}
			lns = append(lns, ln)
		}
		if len(lns) == nReplicas {
			return lns, nil
		}
		for _, ln := range lns {
			ln.Close()
		}
	}
	return nil, fmt.Errorf("no free replica port triple: %w", lastErr)
}

// routed is routed_hot's system: three partial-snapshot replicas behind
// a router, wired with cmd/keyrouter's defaults.
type routed struct {
	replicas []*node
	rt       *cluster.Router
	reg      *telemetry.Registry
	mux      *http.ServeMux
	addr     string

	srv    *http.Server
	cancel context.CancelFunc
	served chan struct{}
	buildS float64
}

func (s *routed) url(path string) string { return "http://" + s.addr + path }

func (s *routed) stop() {
	s.cancel()
	_ = s.srv.Close()
	<-s.served
	for _, n := range s.replicas {
		n.stop()
	}
}

func setupRouted(ctx context.Context, corpus []key) (*routed, error) {
	a, err := analyze(ctx, moduliOf(corpus))
	if err != nil {
		return nil, err
	}
	lns, err := listenReplicas()
	if err != nil {
		return nil, err
	}
	addrs := make([]string, len(lns))
	for i, ln := range lns {
		addrs[i] = ln.Addr().String()
	}
	placement, err := cluster.NewPlacement(addrs, keycheck.DefaultShards, cluster.DefaultReplication)
	if err != nil {
		return nil, err
	}
	s := &routed{reg: telemetry.New(), served: make(chan struct{})}
	t0 := time.Now()
	for i, ln := range lns {
		snap, err := a.build(ctx, placement.OwnedBy(addrs[i]))
		if err != nil {
			return nil, err
		}
		s.replicas = append(s.replicas, startNode(snap, ln, addrs))
	}
	s.buildS = time.Since(t0).Seconds()
	events := newEventLog()
	s.rt, err = cluster.NewRouter(cluster.RouterConfig{
		Replicas:        addrs,
		Shards:          keycheck.DefaultShards,
		Replication:     cluster.DefaultReplication,
		RequestTimeout:  10 * time.Second,
		Retries:         3,
		RetryBackoff:    50 * time.Millisecond,
		RetryBudget:     10000,
		HedgeAfter:      250 * time.Millisecond,
		ProbeInterval:   500 * time.Millisecond,
		ProbeTimeout:    time.Second,
		BreakerFailures: 3,
		BreakerCooldown: time.Second,
		Metrics:         s.reg,
		Events:          events,
	})
	if err != nil {
		return nil, err
	}
	rctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.rt.Start(rctx)
	diag := (&telemetry.Diagnostics{Registry: s.reg, Events: events}).Mux()
	s.mux = s.rt.Mux()
	s.mux.Handle("/metrics", diag)
	s.mux.Handle("/debug/", diag)
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	s.addr = ln.Addr().String()
	s.srv = newHTTPServer(s.mux)
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln)
	}()
	hc := newClient()
	defer hc.CloseIdleConnections()
	if err := awaitReady(hc, s.url("/readyz")); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func runRoutedHot(ctx context.Context, cfg config) (*result, error) {
	res := newResult(cfg, "closed", cfg.clients)
	corpus, p, genS := serveInputs(cfg)
	stream := hotStream(cfg.seed, p, cfg.sizes.hotSet)
	if cfg.skewTruth {
		skew(stream)
	}
	res.Inputs["corpus"] = streamDigest(hexesOf(corpus))
	res.Inputs["stream"] = digestOf(stream)
	res.layer("bench.gen_s", genS, 1)

	sys, setupS, err := repeatSetup(cfg.sizes, func() (*routed, error) { return setupRouted(ctx, corpus) }, (*routed).stop)
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	res.Inputs["replicas"] = strings.Join(sys.rt.Placement().Replicas(), ",")
	// A factored member is answered by its home owner alone; everything
	// else is scatter-gathered. The one-hop answers are the side stream.
	oneHop := func(r *request) bool { return r.class == memberFactored }
	spec := loadSpec{url: sys.url("/v1/check"), stream: stream, clients: cfg.clients, refSlice: cfg.sizes.refSlice, side: oneHop}

	if cfg.trace {
		tr := newTracing()
		res.layer("keycheck.build_s", sys.buildS, 1)
		// Fill every replica's cache first, as the measured pass does.
		warm := spec
		warm.warm = time.Duration(cfg.seconds / 10 * float64(time.Second))
		load, err := runLoad(warm)
		if err != nil {
			return nil, err
		}
		attempted, failed := load.attempted()
		res.count(attempted, failed, load.firstErr)
		traceRouter(ctx, tr, res, sys, stream, cfg.sizes.onion)
		if err := traceLoad(tr, res, spec, cfg.seconds/2, sys.replicas); err != nil {
			return nil, err
		}
		res.layer("cluster.hedges", float64(sys.reg.CounterValue("cluster_hedges_total")), 1)
		res.layer("cluster.degraded", float64(sys.reg.CounterValue("cluster_degraded_verdicts_total")), 1)
		res.layer("cluster.retries", float64(counterSum(sys.reg, "cluster_retries_total")), 1)
		return res, tr.tracer.WriteFile(cfg.traceOut)
	}

	spec.measure(cfg.seconds, cfg.sizes.windows)
	load, err := runLoad(spec)
	if err != nil {
		return nil, err
	}
	attempted, failed := load.attempted()
	res.count(attempted, failed, load.firstErr)
	res.Metrics[mSetup] = setupS
	loadMetrics(res.Metrics, load, "check", "one_hop_check")
	res.Metrics[mRSS] = scalar("MB", peakRSSMB(), 1)
	return res, nil
}

// counterSum adds up every counter whose name starts with prefix (all
// label values of one family).
func counterSum(reg *telemetry.Registry, prefix string) int64 {
	var total int64
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, prefix) {
			total += c.Value
		}
	}
	return total
}

// p50us is the median of call durations in microseconds.
func p50us(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = us(d)
	}
	return median(v)
}

func wireOf(v keycheck.Verdict) *wireVerdict {
	return &wireVerdict{Status: string(v.Status), Known: v.Known, FactorP: v.FactorP, FactorQ: v.FactorQ, Partial: v.Partial}
}

// handle sends one request through a mux into a recorder: the handler's
// whole cost with no socket under it.
func handle(mux *http.ServeMux, r *request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(r.body)))
	return rec
}

// traceOnion sends disjoint slices of each traffic class through
// successively deeper public entry points of one service — HTTP over
// loopback, the handler, Service.Check, Snapshot.Check — so that one
// level's time minus the next level's is the outer layer's own. No key
// is sent twice, so the verdict cache answers none of them.
func traceOnion(ctx context.Context, tr *tracing, res *result, nd *node, p pools, calls int) {
	tr.begin("serve_cold/onion")
	defer tr.end()
	hc := newClient()
	defer hc.CloseIdleConnections()
	mux := nd.api.Mux()
	var novelProbe []time.Duration
	for c := class(0); c < nClasses; c++ {
		// Four levels share the class's pool; small pools give fewer calls.
		n := calls
		if max := len(p[c]) / 4; n > max {
			n = max
		}
		var service, snapshot []time.Duration
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("onion-%s-%d", classNames[c], i)
			r := p[c][i]
			tr.call("http POST /v1/check", id, func() {
				v, err := post(hc, nd.url("/v1/check"), r.body, id)
				res.check(err == nil && r.correct(v), "onion http %s: %+v %v", r.key.hex, v, err)
			})
			r = p[c][n+i]
			tr.call("keycheck.API.ServeHTTP", id, func() { handle(mux, r) })
			r = p[c][2*n+i]
			service = append(service, tr.call("keycheck.Service.Check", id, func() {
				v, err := nd.svc.Check(ctx, r.key.n)
				res.check(err == nil && r.correct(wireOf(v)), "onion service %s: %+v %v", r.key.hex, v, err)
			}))
			r = p[c][3*n+i]
			snapshot = append(snapshot, tr.call("keycheck.Snapshot.Check", id, func() {
				v := nd.svc.Index().Snapshot().Check(r.key.n)
				res.check(r.correct(wireOf(v)), "onion snapshot %s: %+v", r.key.hex, v)
			}))
			if c == novelClean {
				novelProbe = append(novelProbe, tr.call("anomaly.Probe.Factor", id, func() { anomaly.Probe{}.Factor(r.key.n) }))
			}
		}
		res.layer("keycheck.service_check_us."+classNames[c], p50us(service), n)
		res.layer("keycheck.snapshot_check_us."+classNames[c], p50us(snapshot), n)
	}
	res.layer("anomaly.probe_us", p50us(novelProbe), len(novelProbe))
}

// traceHot repeats one key so the verdict cache answers: what is left
// is the serving path's own cost — socket, handler, parse, limiter,
// cache probe — with no index work under it.
func traceHot(ctx context.Context, tr *tracing, res *result, nd *node, r *request, calls int) {
	tr.begin("hot key")
	defer tr.end()
	hc := newClient()
	defer hc.CloseIdleConnections()
	mux := nd.api.Mux()
	handle(mux, r) // fill the cache
	var wire, handler, service []time.Duration
	for i := 0; i < calls; i++ {
		id := fmt.Sprintf("hot-%d", i)
		wire = append(wire, tr.call("http POST /v1/check", id, func() {
			v, err := post(hc, nd.url("/v1/check"), r.body, id)
			res.check(err == nil && r.correct(v), "hot http %s: %+v %v", r.key.hex, v, err)
		}))
		handler = append(handler, tr.call("keycheck.API.ServeHTTP", id, func() { handle(mux, r) }))
		service = append(service, tr.call("keycheck.Service.Check", id, func() {
			v, err := nd.svc.Check(ctx, r.key.n)
			res.check(err == nil && r.correct(wireOf(v)), "hot service %s: %+v %v", r.key.hex, v, err)
		}))
	}
	res.layer("keycheck.handler_us", p50us(handler), calls)
	res.layer("keycheck.service_check_us.hot", p50us(service), calls)
	res.layer("net.roundtrip_us", p50us(wire)-p50us(handler), calls)
	// Parse and limiter are too short to time one call at a time.
	const loop = 1000
	parse := tr.call("keycheck.ParseSubmission x1000", "", func() {
		for i := 0; i < loop; i++ {
			if _, err := keycheck.ParseSubmission(r.body); err != nil {
				res.check(false, "parse %s: %v", r.key.hex, err)
			}
		}
	})
	limit := tr.call("keycheck.RateLimiter.Allow x1000", "", func() {
		for i := 0; i < loop; i++ {
			if !nd.limiter.Allow("127.0.0.1") {
				res.check(false, "limiter refused")
			}
		}
	})
	res.layer("keycheck.parse_us", us(parse)/loop, loop)
	res.layer("keycheck.limiter_us", us(limit)/loop, loop)
}

// traceRouter walks the hot stream down the routed path: the router's
// handler, Router.Check, one replica hop, and the replica's cached
// service check.
func traceRouter(ctx context.Context, tr *tracing, res *result, sys *routed, stream []*request, calls int) {
	tr.begin("routed_hot/onion")
	byAddr := make(map[string]*node, len(sys.replicas))
	for _, n := range sys.replicas {
		byAddr[n.addr] = n
	}
	var viaHTTP, check, hop []time.Duration
	hops := 0
	for i := 0; i < calls; i++ {
		r := stream[i]
		id := fmt.Sprintf("routed-%d", i)
		viaHTTP = append(viaHTTP, tr.call("cluster.Router.ServeHTTP", id, func() { handle(sys.mux, r) }))
		check = append(check, tr.call("cluster.Router.Check", id, func() {
			v := sys.rt.Check(ctx, r.key.n)
			w := wireOf(v.Verdict)
			w.Degraded = v.Degraded
			res.check(r.correct(w), "Router.Check %s: %+v", r.key.hex, v)
			hops += v.Hops
		}))
		home := sys.rt.Placement().Owners(keycheck.ShardOf(r.key.n, keycheck.DefaultShards))[0]
		hop = append(hop, tr.call("cluster.Replica.Check", id, func() {
			if _, rerr := sys.rt.Replica(home).Check(ctx, r.key.hex); rerr != nil {
				res.check(false, "Replica.Check %s: %v", r.key.hex, rerr)
			}
		}))
	}
	tr.end()
	res.layer("cluster.router_check_us", p50us(check), calls)
	res.layer("cluster.router_http_us", p50us(viaHTTP)-p50us(check), calls)
	res.layer("cluster.replica_check_us", p50us(hop), calls)
	res.layer("cluster.hops_per_check", float64(hops)/float64(calls), calls)
	// The replica-side serving cost, on the home owner of a hot member
	// (whose answer is the same with or without the other owners).
	for _, r := range stream {
		if r.class == memberClean {
			home := sys.rt.Placement().Owners(keycheck.ShardOf(r.key.n, keycheck.DefaultShards))[0]
			traceHot(ctx, tr, res, byAddr[home], r, calls)
			return
		}
	}
}

// layerTails reports a closed loop's tail latencies, which carry no
// bound, as the layer metrics load.p90_ms and load.p99_ms.
func layerTails(res *result, l *loadResult) {
	m := map[string]metric{}
	loadMetrics(m, l, "", "")
	res.layer("load.p90_ms", m[mP90].Value, m[mP90].N)
	res.layer("load.p99_ms", m[mP99].Value, m[mP99].N)
}

// traceLoad runs the workload's own closed loop in windows that
// alternate between bare and traced — a span and a request ID on every
// request — and reports what the spans cost, plus the cache and shed
// counters of the nodes over all of it.
func traceLoad(tr *tracing, res *result, spec loadSpec, seconds float64, nodes []*node) error {
	counters := func() (hits, misses, shed int64) {
		for _, n := range nodes {
			hits += n.reg.CounterValue("keycheck_cache_hits_total")
			misses += n.reg.CounterValue("keycheck_cache_misses_total")
			shed += counterSum(n.reg, "keycheck_shed_total")
		}
		return
	}
	h0, m0, s0 := counters()
	tr.begin("load")
	spec.trace = tr.phase
	spec.measure(seconds, 8)
	load, err := runLoad(spec)
	if err != nil {
		return err
	}
	tr.end()
	attempted, failed := load.attempted()
	res.count(attempted, failed, load.firstErr)
	// Even windows ran bare, odd ones traced.
	var rates [2][]float64
	var speeds []float64
	var bare loadResult
	for i, w := range load.windows {
		rates[i%2] = append(rates[i%2], float64(w.correct)/w.elapsed.Seconds()/w.speed)
		speeds = append(speeds, w.speed)
		if i%2 == 0 {
			bare.windows = append(bare.windows, w)
		}
	}
	layerTails(res, &bare)
	h1, m1, s1 := counters()
	res.layer("keycheck.cache_hit_share", float64(h1-h0)/float64(h1-h0+m1-m0), int(h1-h0+m1-m0))
	res.layer("keycheck.shed_total", float64(s1-s0), 1)
	res.layer("bench.trace_overhead_share", 1-median(rates[1])/median(rates[0]), len(load.windows))
	res.layer("bench.machine_speed", median(speeds), len(speeds))
	return nil
}
