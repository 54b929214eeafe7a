package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/keycheck"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/zscan"
)

// device is one fleet member as the generator knows it.
type device struct {
	index uint64
	cert  *certs.Certificate
	der   []byte
	req   *request // a check of its modulus; class is unused
	pos   int      // position among the devices in probe order
	// lo, hi are the hex factors once a cohort mate is indexed ("" for a
	// device that shares no prime).
	lo, hi string

	hitNS atomic.Int64 // when the sweep's probe of this device returned
	// pair is set on the first- and second-probed member of a cohort.
	pair *sentinel
}

// sentinel is one shared-prime cohort watched through the loop. The
// scan holds enough to break the cohort the moment its second member
// is probed; the clock runs from then until a check of the cohort's
// first-probed key — clean until that moment — comes back compromised.
type sentinel struct {
	first, second *device
	armed         atomic.Bool
	startNS       int64 // max of the two members' hit times
	flipNS        int64 // first compromised answer; 0 while pending
}

// fleetTruth is the simulated fleet with the ground truth the harness
// worked out for itself: every device's modulus, the probe order, and
// the shared-prime cohorts (by pairwise GCD over the weak moduli —
// plain math/big, none of the code under test).
type fleetTruth struct {
	fleet     *zscan.SimFleet
	scanSeed  int64
	byIndex   map[uint64]*device
	ordered   []*device // probe order
	sentinels []*sentinel
}

func genFleet(ctx context.Context, cfg config) (*fleetTruth, error) {
	seed := deriveSeed(cfg.seed, domainFleet, 0)
	fleet, err := zscan.NewSimFleet(zscan.FleetOptions{
		Space: cfg.sizes.fleetSpace, Devices: cfg.sizes.fleetDevices, Bits: 128, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	ft := &fleetTruth{fleet: fleet, scanSeed: seed, byIndex: make(map[uint64]*device, cfg.sizes.fleetDevices)}
	byHex := make(map[string]*device, cfg.sizes.fleetDevices)
	for _, idx := range fleet.Indexes() {
		pr := fleet.Probe(ctx, idx)
		cert, err := certs.Parse(pr.DER)
		if err != nil {
			return nil, fmt.Errorf("fleet device %d: %w", idx, err)
		}
		k := &key{n: cert.N, hex: cert.N.Text(16)}
		d := &device{index: idx, cert: cert, der: pr.DER, req: newRequest(k, novelClean)}
		ft.byIndex[idx] = d
		byHex[k.hex] = d
	}
	cyc, err := zscan.NewCycle(cfg.sizes.fleetSpace, seed)
	if err != nil {
		return nil, err
	}
	walk, err := cyc.Shard(0, 1)
	if err != nil {
		return nil, err
	}
	for idx, ok := walk.Next(); ok; idx, ok = walk.Next() {
		if d := ft.byIndex[idx]; d != nil {
			d.pos = len(ft.ordered)
			ft.ordered = append(ft.ordered, d)
		}
	}

	// Cohorts: union devices whose moduli share a prime.
	var weak []*device
	for _, h := range fleet.WeakExemplars() {
		weak = append(weak, byHex[h])
	}
	parent := make([]int, len(weak))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	var g big.Int
	for i := range weak {
		for j := i + 1; j < len(weak); j++ {
			if g.GCD(nil, nil, weak[i].req.key.n, weak[j].req.key.n); g.BitLen() > 1 {
				parent[find(j)] = find(i)
				for _, d := range []*device{weak[i], weak[j]} {
					if d.lo == "" {
						q := new(big.Int).Quo(d.req.key.n, &g)
						lo, hi := new(big.Int).Set(&g), q
						if lo.Cmp(hi) > 0 {
							lo, hi = hi, lo
						}
						d.lo, d.hi = lo.Text(16), hi.Text(16)
					}
				}
			}
		}
	}
	cohorts := map[int][]*device{}
	for i, d := range weak {
		cohorts[find(i)] = append(cohorts[find(i)], d)
	}
	for _, members := range cohorts {
		sort.Slice(members, func(i, j int) bool { return members[i].pos < members[j].pos })
		s := &sentinel{first: members[0], second: members[1]}
		s.first.pair, s.second.pair = s, s
		ft.sentinels = append(ft.sentinels, s)
	}
	sort.Slice(ft.sentinels, func(i, j int) bool { return ft.sentinels[i].second.pos < ft.sentinels[j].second.pos })
	if cfg.skewTruth {
		ft.sentinels[0].first.lo = "1"
	}
	return ft, nil
}

// gate lets the reader hold the sweep and the bridge still for one run
// of the reference kernel, so the machine's speed is read with nothing
// else running. A nil gate never holds.
type gate struct {
	hold  atomic.Pointer[chan struct{}] // set while held; probes wait on it
	posts sync.RWMutex                  // read-held by every POST in flight
}

func (g *gate) wait() {
	if g == nil {
		return
	}
	if ch := g.hold.Load(); ch != nil {
		<-*ch
	}
}

// pause stops new probes, waits out the POST in flight, runs the
// reference kernel and lets everything go again.
func (g *gate) pause(slice time.Duration) float64 {
	ch := make(chan struct{})
	g.hold.Store(&ch)
	g.posts.Lock()
	speed := machineSpeed(slice)
	g.posts.Unlock()
	g.hold.Store(nil)
	close(ch)
	return speed
}

// stampingProber is the Prober the engine is handed: the fleet, with
// the time each device answered written down, and a sentinel armed once
// both of its members have.
type stampingProber struct {
	ft    *fleetTruth
	t0    time.Time
	armed chan *sentinel // nil for dry sweeps
	gate  *gate          // nil for dry sweeps
}

func (p *stampingProber) Probe(ctx context.Context, index uint64) zscan.ProbeResult {
	p.gate.wait()
	pr := p.ft.fleet.Probe(ctx, index)
	if pr.Err != nil {
		return pr
	}
	d := p.ft.byIndex[index]
	now := int64(time.Since(p.t0))
	d.hitNS.Store(now)
	if s := d.pair; s != nil && p.armed != nil {
		other := s.first
		if other == d {
			other = s.second
		}
		if other.hitNS.Load() != 0 && s.armed.CompareAndSwap(false, true) {
			s.startNS = now
			p.armed <- s
		}
	}
	return pr
}

// batchStamp is one POST /v1/ingest as the bridge's transport saw it.
type batchStamp struct {
	startNS, endNS int64
	keys           []string
	ok             bool
}

// stampingTransport wraps the bridge's HTTP transport: which keys went
// in which request, when it was sent and when it was acknowledged.
type stampingTransport struct {
	inner http.RoundTripper
	t0    time.Time
	gate  *gate

	mu      sync.Mutex
	batches []batchStamp
}

func (t *stampingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req.Body.Close()
	req.Body = io.NopCloser(bytes.NewReader(body))
	var env struct {
		ModuliHex []string `json:"moduli_hex"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	t.gate.posts.RLock()
	start := time.Since(t.t0)
	resp, err := t.inner.RoundTrip(req)
	end := time.Since(t.t0)
	t.gate.posts.RUnlock()
	t.mu.Lock()
	t.batches = append(t.batches, batchStamp{
		startNS: int64(start), endNS: int64(end), keys: env.ModuliHex,
		ok: err == nil && resp.StatusCode == http.StatusOK,
	})
	t.mu.Unlock()
	return resp, err
}

// readerWindows is how many windows the reader's checks are measured
// in; the sweep is paced to last exactly that many.
const readerWindows = 6

// sweepOutcome is what one paced sweep beside a reader produced.
type sweepOutcome struct {
	reader    loadResult
	window    time.Duration
	speed     float64 // the machine's, mean over the window boundaries
	rep       zscan.Report
	bridge    zscan.BridgeStats
	batches   []batchStamp
	lateMS    float64
	fresh     []float64 // ms, one per sentinel that flipped
	unflipped int
}

// scanIngest runs the loop once: a sweep paced to last sweepFor, its
// harvest bridged into the live service's /v1/ingest, while one
// closed-loop reader sends cold member checks and, between them, polls
// every armed sentinel until its verdict flips.
func scanIngest(ctx context.Context, cfg config, res *result, nd *node, ft *fleetTruth, members []*request, warm, sweepFor time.Duration, scratch string) (*sweepOutcome, error) {
	t0 := time.Now()
	hold := &gate{}
	conn := &http.Transport{MaxIdleConnsPerHost: 1}
	defer conn.CloseIdleConnections()
	transport := &stampingTransport{inner: conn, t0: t0, gate: hold}
	bridge, err := zscan.NewBridge(zscan.BridgeOptions{
		URL:    nd.url("/v1/ingest"),
		Client: &http.Client{Timeout: 10 * time.Second, Transport: transport},
	})
	if err != nil {
		return nil, err
	}
	prober := &stampingProber{ft: ft, t0: t0, armed: make(chan *sentinel, len(ft.sentinels)), gate: hold}
	// Dry sweeps of a traced pass stamped the devices already.
	for _, d := range ft.ordered {
		d.hitNS.Store(0)
	}
	ckpt, err := os.MkdirTemp(scratch, "ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckpt)
	eng, err := zscan.New(zscan.Options{
		Space: cfg.sizes.fleetSpace, Seed: ft.scanSeed, Rate: float64(cfg.sizes.fleetSpace) / sweepFor.Seconds(),
		Prober: prober, Store: scanstore.New(), CheckpointDir: ckpt, Ingest: bridge,
	})
	if err != nil {
		return nil, err
	}

	out := &sweepOutcome{window: sweepFor / readerWindows}
	out.reader.windows = make([]window, readerWindows)
	scanDone := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		readLoop(res, nd, members, ft, prober.armed, scanDone, t0, warm, hold, cfg.sizes.refSlice, out)
	}()

	time.Sleep(warm)
	sweepStart := time.Now()
	rep, runErr := eng.Run(ctx)
	out.lateMS = ms(time.Since(sweepStart) - sweepFor)
	bridge.Close()
	close(scanDone)
	<-readerDone
	if runErr != nil {
		return nil, runErr
	}
	out.rep, out.bridge, out.batches = rep, bridge.Stats(), transport.batches

	devices := cfg.sizes.fleetDevices
	res.check(rep.Probes == cfg.sizes.fleetSpace, "paced sweep probed %d of %d addresses", rep.Probes, cfg.sizes.fleetSpace)
	res.check(int(rep.Hits) == devices && rep.NovelModuli == devices, "paced sweep harvested %d hits, %d novel moduli of %d devices", rep.Hits, rep.NovelModuli, devices)
	res.check(out.bridge.Dropped == 0 && int(out.bridge.Delivered) == devices, "bridge delivered %d, dropped %d of %d keys", out.bridge.Delivered, out.bridge.Dropped, devices)
	for _, s := range ft.sentinels {
		if s.flipNS == 0 {
			out.unflipped++
			continue
		}
		out.fresh = append(out.fresh, ms(time.Duration(s.flipNS-s.startNS)))
	}
	res.check(out.unflipped == 0, "%d of %d sentinels never flipped", out.unflipped, len(ft.sentinels))
	return out, nil
}

// drainFor bounds how long the reader keeps polling after the sweep and
// the bridge have finished; a sentinel still clean then is a failure.
const drainFor = 5 * time.Second

func readLoop(res *result, nd *node, members []*request, ft *fleetTruth, armed <-chan *sentinel, scanDone <-chan struct{}, t0 time.Time, warm time.Duration, hold *gate, refSlice time.Duration, out *sweepOutcome) {
	hc := newClient()
	defer hc.CloseIdleConnections()
	url := nd.url("/v1/check")
	windows := out.reader.windows
	var pending []*sentinel
	flipped, turn := 0, 0
	var deadline time.Time
	// The reader's checks are measured in windows with the whole system
	// held still for the reference kernel at every boundary: before the
	// first window, between windows and after the last. current is the
	// window being measured, nil outside them.
	var speeds []float64
	var current *window
	boundary, windowStart := t0.Add(warm), t0
	for i := 0; ; i++ {
		if len(speeds) <= len(windows) && !time.Now().Before(boundary) {
			if current != nil {
				current.elapsed = time.Since(windowStart)
			}
			speeds = append(speeds, hold.pause(refSlice))
			current = nil
			if k := len(speeds) - 1; k < len(windows) {
				current = &windows[k]
			}
			windowStart = time.Now()
			boundary = windowStart.Add(out.window)
		}
		select {
		case <-scanDone:
			scanDone = nil
			deadline = time.Now().Add(drainFor)
		default:
		}
		if scanDone == nil && len(speeds) > len(windows) && (flipped == len(ft.sentinels) || time.Now().After(deadline)) {
			break
		}
		// One cold member check, measured while the sweep is due to run.
		r := members[i%len(members)]
		start := time.Now()
		v, err := post(hc, url, r.body, "")
		d := time.Since(start)
		ok := err == nil && r.correct(v)
		if !ok && out.reader.firstErr == nil {
			out.reader.firstErr = fmt.Errorf("reader %s key %s: got %+v, err %v", classNames[r.class], r.key.hex, v, err)
		}
		w := current
		if w == nil {
			w = &out.reader.warm
		}
		if ok {
			w.correct++
			w.lat = append(w.lat, ms(d))
		} else {
			w.failed++
		}
		// Then one poll of one armed sentinel, round robin.
		for more := true; more; {
			select {
			case s := <-armed:
				pending = append(pending, s)
			default:
				more = false
			}
		}
		if len(pending) == 0 {
			continue
		}
		turn %= len(pending)
		s := pending[turn]
		v, err = post(hc, url, s.first.req.body, "")
		now := int64(time.Since(t0))
		switch {
		case err == nil && v.Status == "clean" && !v.Partial:
			res.count(1, 0, nil)
			turn++
			continue
		case err == nil && (v.Status == "factored" || v.Status == "shared_factor") && v.FactorP == s.first.lo && v.FactorQ == s.first.hi:
			res.count(1, 0, nil)
			s.flipNS = now
		default:
			// Wrong answer: give up on this sentinel; it stays unflipped.
			res.count(1, 1, fmt.Errorf("sentinel %s: got %+v, err %v, want clean or factors %s,%s", s.first.req.key.hex, v, err, s.first.lo, s.first.hi))
		}
		flipped++
		pending[turn] = pending[len(pending)-1]
		pending = pending[:len(pending)-1]
	}
	for w := range windows {
		windows[w].speed = (speeds[w] + speeds[w+1]) / 2
	}
	out.speed = mean(speeds)
}

// memberStream is the reader's cold traffic: corpus members only, each
// pool walked without replacement, 95% clean and 5% factored.
func memberStream(seed int64, p pools) []*request {
	rng := newRNG(seed, domainStream, 3)
	var at [nClasses]int
	stream := make([]*request, streamLen)
	for i := range stream {
		c := memberClean
		if rng.Float64() >= 0.95 {
			c = memberFactored
		}
		stream[i] = p[c][at[c]%len(p[c])]
		at[c]++
	}
	return stream
}

func runScanIngest(ctx context.Context, cfg config, scratch string) (*result, error) {
	res := newResult(cfg, "closed", 2)
	if cfg.clients < 2 {
		return nil, errors.New("scan_ingest needs two connections: the reader and the bridge")
	}
	t0 := time.Now()
	corpus := genCorpus(cfg.seed, cfg.sizes.serveCorpus)
	p := makePools(cfg.seed, corpus, nil)
	members := memberStream(cfg.seed, p)
	ft, err := genFleet(ctx, cfg)
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	res.Inputs["corpus"] = streamDigest(hexesOf(corpus))
	res.Inputs["stream"] = digestOf(members)
	fleetHex := make([]string, len(ft.ordered))
	for i, d := range ft.ordered {
		fleetHex[i] = d.req.key.hex
	}
	res.Inputs["fleet"] = streamDigest(fleetHex)
	res.layer("bench.gen_s", genS, 1)

	sys, setupS, err := repeatSetup(cfg.sizes, func() (*single, error) { return setupSingle(ctx, corpus) }, func(s *single) { s.node.stop() })
	if err != nil {
		return nil, err
	}
	defer sys.node.stop()

	if cfg.trace {
		return res, traceScanIngest(ctx, cfg, res, sys, ft, members, scratch)
	}

	// A tenth of the time warms the reader up, three twentieths are left
	// for the bridge to flush and the last sentinels to flip.
	warm := time.Duration(cfg.seconds * 0.10 * float64(time.Second))
	sweepFor := time.Duration(cfg.seconds * 0.75 * float64(time.Second))
	out, err := scanIngest(ctx, cfg, res, sys.node, ft, members, warm, sweepFor, scratch)
	if err != nil {
		return nil, err
	}
	attempted, failed := out.reader.attempted()
	res.count(attempted, failed, out.reader.firstErr)
	res.Metrics[mSetup] = setupS
	loadMetrics(res.Metrics, &out.reader, "check", "")
	rate, n := ingestRate(out.batches)
	res.Metrics[mSide] = ratesAt([]float64{out.speed}, "1/s", "ingest_keys_per_s", n, []float64{rate})
	// Freshness is mostly the bridge's flush timer, not CPU work, so it
	// is reported as the clock read it.
	fresh := sortedCopy(out.fresh)
	res.Metrics[mSideP50] = metric{Value: quantile(fresh, 0.5), Unit: "ms", Alias: "freshness_p50_ms", N: len(fresh)}
	res.Metrics[mRSS] = scalar("MB", peakRSSMB(), 1)
	return res, nil
}

// ingestRate is keys acknowledged per second of POST /v1/ingest round
// trip: the service rate while busy, whatever the pacing.
func ingestRate(batches []batchStamp) (perS float64, n int) {
	var keys int
	var busy time.Duration
	for _, b := range batches {
		if b.ok {
			keys += len(b.keys)
			busy += time.Duration(b.endNS - b.startNS)
			n++
		}
	}
	return float64(keys) / busy.Seconds(), n
}

// traceScanIngest measures the scan → serve loop layer by layer: the
// engine unpaced and unbridged, its parts called one at a time, then a
// shorter paced sweep whose sentinels' latency is split at the bridge's
// transport, and the same ingests called directly.
func traceScanIngest(ctx context.Context, cfg config, res *result, sys *single, ft *fleetTruth, members []*request, scratch string) error {
	tr := newTracing()
	res.layer("keycheck.build_s", sys.buildS, 1)
	res.layer("bench.machine_speed", machineSpeed(cfg.sizes.refSlice), 1)
	space, devices := cfg.sizes.fleetSpace, cfg.sizes.fleetDevices

	// Phase A: dry sweeps.
	tr.begin("scan_ingest/dry sweeps")
	var perS []float64
	var last zscan.Report
	for i := 0; i < 2; i++ {
		eng, err := zscan.New(zscan.Options{
			Space: space, Seed: ft.scanSeed, Store: scanstore.New(),
			Prober: &stampingProber{ft: ft, t0: time.Now()},
		})
		if err != nil {
			return err
		}
		tr.call("zscan.Engine.Run", "", func() { last, err = eng.Run(ctx) })
		if err != nil {
			return err
		}
		res.check(last.Probes == space && int(last.Hits) == devices && last.NovelModuli == devices,
			"dry sweep: %d probes, %d hits, %d novel moduli of %d devices", last.Probes, last.Hits, last.NovelModuli, devices)
		perS = append(perS, float64(space)/last.Elapsed.Seconds())
	}
	res.layer("zscan.engine_probes_per_s", median(perS), len(perS))
	res.layer("zscan.hits", float64(last.Hits), 1)
	res.layer("zscan.novel_moduli", float64(last.NovelModuli), 1)
	var probeErrs uint64
	for _, n := range last.Errors {
		probeErrs += n
	}
	res.layer("zscan.probe_errors", float64(probeErrs), 1)

	// The engine's parts, one call at a time.
	tr.begin("scan_ingest/parts")
	cyc, err := zscan.NewCycle(space, ft.scanSeed)
	if err != nil {
		return err
	}
	walk, err := cyc.Shard(0, 1)
	if err != nil {
		return err
	}
	const steps = 1 << 20
	idxs := make([]uint64, 0, steps)
	d := tr.call("zscan.Walk.Next x1M", "", func() {
		for len(idxs) < steps {
			idx, ok := walk.Next()
			if !ok {
				break
			}
			idxs = append(idxs, idx)
		}
	})
	res.layer("zscan.walk_ns", float64(d)/float64(len(idxs)), len(idxs))
	d = tr.call("zscan.SimFleet.Probe x1M", "", func() {
		for _, idx := range idxs {
			ft.fleet.Probe(ctx, idx)
		}
	})
	res.layer("zscan.fleet_probe_ns", float64(d)/float64(len(idxs)), len(idxs))
	d = tr.call("certs.Parse x fleet", "", func() {
		for _, dev := range ft.ordered {
			if _, err := certs.Parse(dev.der); err != nil {
				res.check(false, "certs.Parse: %v", err)
			}
		}
	})
	res.layer("certs.parse_us", us(d)/float64(devices), devices)
	store := scanstore.New()
	var saves []float64
	cp := store.Checkpoint()
	var add time.Duration
	for i, dev := range ft.ordered {
		add += tr.call("scanstore.Store.AddCertObservation", "", func() {
			if err := store.AddCertObservation(fmt.Sprint(dev.index), corpusDate, scanstore.SourceCensys, scanstore.HTTPS, dev.cert); err != nil {
				res.check(false, "AddCertObservation: %v", err)
			}
		})
		// The engine checkpoints every 256 stored observations.
		if (i+1)%256 == 0 {
			saves = append(saves, ms(tr.call("scanstore.Store.SaveDelta", "", func() {
				if err := store.SaveDelta(io.Discard, cp); err != nil {
					res.check(false, "SaveDelta: %v", err)
				}
			})))
			cp = store.Checkpoint()
		}
	}
	res.layer("scanstore.add_us", us(add)/float64(devices), devices)
	res.layer("scanstore.save_delta_ms", median(saves), len(saves))

	// Phase B, shorter, with the sentinel clock split at the transport.
	tr.begin("scan_ingest/paced sweep")
	warm := time.Duration(cfg.seconds * 0.05 * float64(time.Second))
	sweepFor := time.Duration(cfg.seconds * 0.35 * float64(time.Second))
	out, err := scanIngest(ctx, cfg, res, sys.node, ft, members, warm, sweepFor, scratch)
	if err != nil {
		return err
	}
	attempted, failed := out.reader.attempted()
	res.count(attempted, failed, out.reader.firstErr)
	layerTails(res, &out.reader)
	batchOf := map[string]*batchStamp{}
	var rtts []float64
	for i := range out.batches {
		b := &out.batches[i]
		rtts = append(rtts, ms(time.Duration(b.endNS-b.startNS)))
		for _, k := range b.keys {
			batchOf[k] = b
		}
	}
	var wait, rtt, ack []float64
	for _, s := range ft.sentinels {
		// The later-probed member's batch is the one that flips it.
		b := batchOf[s.second.req.key.hex]
		if b == nil || s.flipNS == 0 {
			continue
		}
		wait = append(wait, ms(time.Duration(b.startNS-s.startNS)))
		rtt = append(rtt, ms(time.Duration(b.endNS-b.startNS)))
		ack = append(ack, ms(time.Duration(s.flipNS-b.endNS)))
	}
	fresh := sortedCopy(out.fresh)
	res.layer("zscan.bridge_wait_ms", median(wait), len(wait))
	res.layer("keycheck.ingest_rtt_ms", median(rtt), len(rtt))
	res.layer("fresh.ack_to_verdict_ms", median(ack), len(ack))
	res.layer("fresh.p50_ms", quantile(fresh, 0.5), len(fresh))
	res.layer("fresh.p90_ms", quantile(fresh, 0.9), len(fresh))
	res.layer("bench.pacer_late_ms", out.lateMS, 1)
	res.layer("zscan.bridge_batches", float64(out.bridge.Batches), 1)
	res.layer("zscan.bridge_retries", float64(out.bridge.Retries), 1)
	res.layer("zscan.bridge_dropped", float64(out.bridge.Dropped), 1)
	res.layer("keycheck.shed_total", float64(counterSum(sys.node.reg, "keycheck_shed_total")), 1)

	// The same work without HTTP: fixed batches of fleet keys, in probe
	// order, ingested directly into a fresh service over the same corpus.
	tr.begin("scan_ingest/direct ingest")
	snap, err := sys.a.build(ctx, nil)
	if err != nil {
		return err
	}
	svc := keycheck.NewService(snap, keycheck.Config{})
	const batch, batches = 128, 16
	var direct []float64
	var built, reused, touched int
	for i := 0; i < batches && (i+1)*batch <= len(ft.ordered); i++ {
		st := scanstore.New()
		for _, dev := range ft.ordered[i*batch : (i+1)*batch] {
			st.AddBareKeyObservation("bench", corpusDate, scanstore.SourceAPI, scanstore.HTTPS, dev.req.key.n)
		}
		var rep keycheck.IngestReport
		direct = append(direct, ms(tr.call("keycheck.Service.Ingest", "", func() { rep, err = svc.Ingest(ctx, keycheck.BuildInput{Store: st}) })))
		if err != nil {
			return err
		}
		res.check(rep.DeltaModuli == batch, "direct ingest took %d of %d keys", rep.DeltaModuli, batch)
		built += rep.NodesBuilt
		reused += rep.NodesReused
		touched += rep.TouchedShards
	}
	tr.end()
	res.layer("keycheck.ingest_direct_ms", median(direct), len(direct))
	res.layer("keycheck.ingest_nodes_built", float64(built), len(direct))
	res.layer("keycheck.ingest_nodes_reused", float64(reused), len(direct))
	res.layer("keycheck.ingest_touched_shards", float64(touched), len(direct))
	// Spans here wrap whole phases and single calls outside any timed
	// loop, so they cost the measured rates nothing.
	res.layer("bench.trace_overhead_share", 0, 1)
	return tr.tracer.WriteFile(cfg.traceOut)
}
