package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/big"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/cluster"
	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/keycheck"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// network is stated in every result: no number here crossed a real link.
const network = "loopback, in-process"

var corpusDate = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)

// corpusHosts are the addresses the corpus is observed at, formatted
// once so that set-up times the store and not fmt.
var corpusHosts = func() (hosts [250]string) {
	for i := range hosts {
		hosts[i] = fmt.Sprintf("192.0.2.%d", i)
	}
	return hosts
}()

func storeOf(moduli []*big.Int) *scanstore.Store {
	st := scanstore.New()
	for i, n := range moduli {
		st.AddBareKeyObservation(corpusHosts[i%len(corpusHosts)], corpusDate, scanstore.SourceCensys, scanstore.HTTPS, n)
	}
	return st
}

// analysis is the offline half of set-up: the corpus as a scan store and
// the factored set batch GCD recovered from it, which every snapshot of
// the same corpus (full or partial) is then built from.
type analysis struct {
	store    *scanstore.Store
	fp       *fingerprint.Result
	factorS  float64
	factored int
}

func analyze(ctx context.Context, moduli []*big.Int) (*analysis, error) {
	a := &analysis{store: storeOf(moduli)}
	t0 := time.Now()
	res, err := batchgcd.FactorCtx(ctx, moduli)
	if err != nil {
		return nil, fmt.Errorf("factor corpus: %w", err)
	}
	a.factorS = time.Since(t0).Seconds()
	a.fp = &fingerprint.Result{Factors: make(map[string]fingerprint.Factors, len(res))}
	for _, r := range res {
		n := moduli[r.Index]
		p, q, err := batchgcd.SplitModulus(n, r.Divisor)
		if err != nil {
			return nil, fmt.Errorf("split corpus modulus %d: %w", r.Index, err)
		}
		a.fp.Factors[string(n.Bytes())] = fingerprint.Factors{P: p, Q: q}
	}
	a.factored = len(res)
	return a, nil
}

func (a *analysis) build(ctx context.Context, own []int) (*keycheck.Snapshot, error) {
	return keycheck.Build(ctx, keycheck.BuildInput{
		Store: a.store, Fingerprint: a.fp, Shards: keycheck.DefaultShards, OwnShards: own,
	})
}

// node is one in-process keyserverd: the same service, limiter, event
// log, request tracker, diagnostics mux and http.Server timeouts as
// cmd/keyserverd, behind a real listener on loopback. The limiter is
// configured never to refuse, so its cost is on the path and its verdict
// is not.
type node struct {
	svc     *keycheck.Service
	api     *keycheck.API
	limiter *keycheck.RateLimiter
	reg     *telemetry.Registry
	addr    string

	srv    *http.Server
	cancel context.CancelFunc
	served chan struct{}
	bg     sync.WaitGroup
}

// peers, when non-empty, wires the node as a cluster replica advertised
// as ln's address: ingest journal, /v1/sync and the peer-pull loop.
func startNode(snap *keycheck.Snapshot, ln net.Listener, peers []string) *node {
	reg := telemetry.New()
	events := newEventLog()
	requests := telemetry.NewRequestTracker(128, 32)
	cfg := keycheck.Config{Metrics: reg, Events: events, Requests: requests}
	var journal *cluster.Journal
	if len(peers) > 0 {
		journal = &cluster.Journal{}
		cfg.OnIngest = func(rep keycheck.IngestReport) { journal.Append(rep.NovelKeys) }
	}
	n := &node{
		reg:     reg,
		addr:    ln.Addr().String(),
		limiter: keycheck.NewRateLimiter(1e9, 1<<30),
		served:  make(chan struct{}),
	}
	n.svc = keycheck.NewService(snap, cfg)
	n.api = keycheck.NewAPI(n.svc, n.limiter, reg)
	diag := (&telemetry.Diagnostics{Registry: reg, Events: events, Requests: requests}).Mux()
	mux := n.api.Mux()
	mux.Handle("/metrics", diag)
	mux.Handle("/debug/", diag)
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	if journal != nil {
		mux.Handle("/v1/sync", journal.Handler())
		syncer := &cluster.Syncer{Self: n.addr, Peers: peers, Service: n.svc, Interval: time.Second, Metrics: reg, Events: events}
		n.bg.Add(1)
		go func() {
			defer n.bg.Done()
			syncer.Run(ctx)
		}()
	}
	n.srv = newHTTPServer(mux)
	go func() {
		defer close(n.served)
		_ = n.srv.Serve(ln) // always ErrServerClosed after stop
	}()
	return n
}

// newEventLog is the daemons' flight recorder: everything kept in the
// ring, info and above formatted for a log sink nobody reads.
func newEventLog() *telemetry.EventLog {
	return telemetry.NewEventLog(telemetry.EventConfig{
		Size: 1024, Level: slog.LevelDebug, Tee: io.Discard, TeeLevel: slog.LevelInfo,
	})
}

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

func (n *node) url(path string) string { return "http://" + n.addr + path }

func (n *node) stop() {
	n.cancel()
	_ = n.srv.Close()
	<-n.served
	n.bg.Wait()
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// awaitReady polls /readyz until it answers 200: set-up ends when the
// system would take traffic, not when the listener exists.
func awaitReady(hc *http.Client, url string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := hc.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: %w", url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newClient returns one load-generator connection: a keep-alive client
// of its own, so "clients" and "connections" are the same count.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute},
	}
}

// class is what the generator knows a request's key to be.
type class int

const (
	memberClean class = iota
	memberFactored
	novelClean
	novelShared
	nClasses
)

var classNames = [nClasses]string{"member_clean", "member_factored", "novel_clean", "novel_shared"}

// request is one pre-encoded /v1/check submission with its ground truth.
type request struct {
	key   *key
	class class
	body  []byte
}

func newRequest(k *key, c class) *request {
	body, _ := json.Marshal(map[string]string{"modulus_hex": k.hex})
	return &request{key: k, class: c, body: body}
}

// wireVerdict is the part of a /v1/check answer (service or router) the
// oracle reads, decoded with the harness's own type.
type wireVerdict struct {
	Status   string `json:"status"`
	Known    bool   `json:"known"`
	FactorP  string `json:"factor_p_hex"`
	FactorQ  string `json:"factor_q_hex"`
	Partial  bool   `json:"partial"`
	Degraded bool   `json:"degraded"`
	Hops     int    `json:"hops"`
}

// correct says whether v is the right answer for r: the status of the
// key's class, membership, and for a compromised key the exact split.
// With every replica up, partial or degraded is wrong too.
func (r *request) correct(v *wireVerdict) bool {
	if v.Partial || v.Degraded {
		return false
	}
	var status string
	known := r.class == memberClean || r.class == memberFactored
	switch r.class {
	case memberClean, novelClean:
		return v.Status == "clean" && v.Known == known
	case memberFactored:
		status = "factored"
	case novelShared:
		status = "shared_factor"
	}
	p, q := r.key.factorsHex()
	return v.Status == status && v.Known == known && v.FactorP == p && v.FactorQ == q
}

// post sends one check and returns the decoded verdict; any transport
// error, non-200 or undecodable body is an error (a failed operation).
func post(hc *http.Client, url string, body []byte, requestID string) (*wireVerdict, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var v wireVerdict
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// window is what one measurement window of a closed loop saw.
type window struct {
	correct, failed int
	lat             []float64 // ms, correct answers only
	sideLat         []float64 // ms, the subset side() selects
	elapsed         time.Duration
	speed           float64 // the machine's, over this window
}

func (w *window) add(o *window) {
	w.correct += o.correct
	w.failed += o.failed
	w.lat = append(w.lat, o.lat...)
	w.sideLat = append(w.sideLat, o.sideLat...)
}

// loadSpec describes a closed loop: clients goroutines, each with its
// own connection, take the next request of one shared seeded stream the
// moment their previous answer arrived. A warm-up is sent and checked
// but not measured; then the loop runs window by window, pausing
// between them for the reference kernel.
type loadSpec struct {
	url      string
	stream   []*request
	clients  int
	warm     time.Duration
	window   time.Duration
	windows  int
	refSlice time.Duration
	// side selects the requests also reported as the side stream.
	side func(*request) bool
	// trace, when set, records one span per request of every second
	// window (each client on its own track) and stamps the request with
	// an ID the server's own telemetry carries too. The windows between
	// run bare, so the two halves tell what the spans cost.
	trace *telemetry.Span
}

type loadResult struct {
	windows  []window
	warm     window
	firstErr error
}

func (l *loadResult) attempted() (attempted, failed int) {
	attempted, failed = l.warm.correct+l.warm.failed, l.warm.failed
	for _, w := range l.windows {
		attempted += w.correct + w.failed
		failed += w.failed
	}
	return attempted, failed
}

func runLoad(spec loadSpec) (*loadResult, error) {
	if len(spec.stream) == 0 {
		return nil, errors.New("empty request stream")
	}
	conns := make([]*http.Client, spec.clients)
	for i := range conns {
		conns[i] = newClient()
		defer conns[i].CloseIdleConnections()
	}
	res := &loadResult{}
	var next atomic.Int64
	// runFor sends for d on every connection and returns what came back.
	runFor := func(d time.Duration, trace *telemetry.Span) window {
		parts := make([]window, len(conns))
		errs := make([]error, len(conns))
		var wg sync.WaitGroup
		start := time.Now()
		for c, hc := range conns {
			wg.Add(1)
			go func(c int, hc *http.Client) {
				defer wg.Done()
				w := &parts[c]
				for t0 := time.Now(); t0.Sub(start) < d; t0 = time.Now() {
					// The stream is long enough that wrapping keeps every
					// reuse distance far beyond the verdict cache.
					i := next.Add(1) - 1
					r := spec.stream[i%int64(len(spec.stream))]
					var id string
					sp := trace.ChildTrack("POST /v1/check", c+1)
					if sp != nil {
						id = fmt.Sprintf("bench-%d", i)
						sp.SetArg("request_id", id)
						sp.SetArg("class", classNames[r.class])
					}
					v, err := post(hc, spec.url, r.body, id)
					sp.End()
					lat := ms(time.Since(t0))
					if err != nil || !r.correct(v) {
						w.failed++
						if errs[c] == nil {
							errs[c] = fmt.Errorf("%s key %s: got %+v, err %v", classNames[r.class], r.key.hex, v, err)
						}
						continue
					}
					w.correct++
					w.lat = append(w.lat, lat)
					if spec.side != nil && spec.side(r) {
						w.sideLat = append(w.sideLat, lat)
					}
				}
			}(c, hc)
		}
		wg.Wait()
		var all window
		all.elapsed = time.Since(start)
		for c := range parts {
			all.add(&parts[c])
			if res.firstErr == nil {
				res.firstErr = errs[c]
			}
		}
		return all
	}
	res.warm = runFor(spec.warm, nil)
	var track speedTrack
	track.mark(spec.refSlice)
	for i := 0; i < spec.windows; i++ {
		var trace *telemetry.Span
		if i%2 == 1 {
			trace = spec.trace
		}
		w := runFor(spec.window, trace)
		w.speed = track.lap()
		res.windows = append(res.windows, w)
	}
	return res, nil
}

// loadMetrics turns the windows of a closed loop into the four
// operation metrics and the unbounded tails: each is the median over
// windows of the window's own rate or percentile, corrected by the
// machine's speed over that window. The side rate is side-stream answers
// per second spent waiting for them, so it does not move with the mix.
func loadMetrics(out map[string]metric, l *loadResult, opAlias, sideAlias string) {
	var rate, p50, p90, p99, sideRate, sideP50, speeds []float64
	var n, sideN int
	for _, w := range l.windows {
		lat, side := sortedCopy(w.lat), sortedCopy(w.sideLat)
		rate = append(rate, float64(w.correct)/w.elapsed.Seconds())
		p50 = append(p50, quantile(lat, 0.50))
		p90 = append(p90, quantile(lat, 0.90))
		p99 = append(p99, quantile(lat, 0.99))
		sideRate = append(sideRate, float64(len(side))/(sum(side)/1e3))
		sideP50 = append(sideP50, quantile(side, 0.50))
		speeds = append(speeds, w.speed)
		n += len(lat)
		sideN += len(side)
	}
	out[mOps] = ratesAt(speeds, "1/s", opAlias+"s_per_s", n, rate)
	out[mP50] = timesAt(speeds, "ms", opAlias+"_p50_ms", n, p50)
	out[mP90] = timesAt(speeds, "ms", opAlias+"_p90_ms", n, p90)
	out[mP99] = timesAt(speeds, "ms", opAlias+"_p99_ms", n, p99)
	out[mSide] = ratesAt(speeds, "1/s", sideAlias+"s_per_busy_s", sideN, sideRate)
	out[mSideP50] = timesAt(speeds, "ms", sideAlias+"_p50_ms", sideN, sideP50)
}
