// Command keyserverd serves the online weak-key check service: the
// reproduction of factorable.net's "check my key" endpoint over a
// completed study corpus.
//
// The daemon either analyzes a saved scan corpus or simulates one,
// builds the sharded keycheck index from the study's factored set, and
// serves:
//
//	POST /v1/check      JSON {"modulus_hex": "..."} (or cert_pem /
//	                    cert_der, or a raw PEM body) → verdict
//	POST /v1/ingest     JSON {"moduli_hex": [...]} → fold new moduli into
//	                    the live index without a restart (-allow-ingest)
//	GET  /v1/stats      index, cache and limiter statistics
//	GET  /v1/exemplars  known factored/clean corpus keys for smoke tests
//	/metrics            Prometheus exposition  /debug/vars  JSON vars
//	/debug/events       flight-recorder window (?level=, ?request_id=, ?n=)
//	/debug/requests     in-flight, recent and slowest checks/ingests
//	/debug/bundle       gzipped tar postmortem bundle
//
// Every request is correlated: an inbound X-Request-Id (or W3C
// traceparent trace-id) is honoured, otherwise an ID is minted, and it
// is echoed on every response and stamped on every event the request
// emits.
//
// Examples:
//
//	keyserverd -scale 0.05 -bits 128 -listen 127.0.0.1:8446
//	keyserverd -load corpus.gob -rate 100 -burst 200 -log-level debug
//	kill -HUP <pid>   # with -load: ingest the corpus file's delta
//	kill -USR1 <pid>  # write a debug bundle to the -debug-bundle path
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, in-
// flight checks finish, then the process exits.
//
// Cluster mode (-cluster-self with -cluster-peers) turns the process
// into one replica of a keyrouter cluster: it indexes only its
// placement-assigned shards, serves GET /v1/sync?since=<gen> so peers
// can pull its ingest journal, and pulls theirs on -sync-interval. The
// placement is computed from the peer list alone, at
// keycheck.DefaultShards shards and cluster.DefaultReplication, the
// same constants keyrouter uses.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/factorable/weakkeys/internal/cluster"
	"github.com/factorable/weakkeys/internal/core"
	"github.com/factorable/weakkeys/internal/kernel"
	"github.com/factorable/weakkeys/internal/keycheck"
	"github.com/factorable/weakkeys/internal/population"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// drainTimeout is the graceful shutdown deadline.
const drainTimeout = 10 * time.Second

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:8446", "serve the check API on this address; :0 picks a port")
		loadFrom  = flag.String("load", "", "analyze a saved scan corpus (scanstore snapshot) instead of simulating")
		seed      = flag.Int64("seed", 2016, "simulation seed (ignored with -load)")
		scale     = flag.Float64("scale", 0.05, "population scale multiplier (ignored with -load)")
		bits      = flag.Int("bits", 128, "RSA modulus size for simulated keys")
		subsets   = flag.Int("subsets", 3, "batch GCD subsets k for the study run")
		rate      = flag.Float64("rate", 50, "per-client rate limit in checks/sec (0 disables)")
		burst     = flag.Int("burst", 100, "per-client rate-limit burst")
		anomFleet = flag.Bool("anomaly-fleet", false, "append the anomalous device families (close primes, small factors, e=1, fleet-shared modulus) to the simulated ecosystem (ignored with -load)")
		quiet     = flag.Bool("q", false, "suppress progress output")
		ingestOK  = flag.Bool("allow-ingest", true, "serve POST /v1/ingest (live index updates)")
		logLevel  = flag.String("log-level", "info", "stderr log floor: debug, info, warn or error (the flight recorder keeps everything)")
		logFormat = flag.String("log-format", "text", "stderr log encoding: text or json")
		bundleTo  = flag.String("debug-bundle", "keyserverd-debug.tar.gz", "SIGUSR1 writes a postmortem debug bundle to this path (empty disables)")

		clusterSelf  = flag.String("cluster-self", "", "this replica's advertised host:port; enables cluster mode (index only placement-owned shards, serve and pull /v1/sync)")
		clusterPeers = flag.String("cluster-peers", "", "comma-separated ordered host:port list of every replica, -cluster-self included; all replicas and the router must agree on it")
		syncEvery    = flag.Duration("sync-interval", time.Second, "peer journal pull interval in cluster mode")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "keyserverd:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := telemetry.New()
	teeLevel, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	if *logFormat != "text" && *logFormat != "json" {
		fatal(fmt.Errorf("-log-format must be text or json, got %q", *logFormat))
	}
	events := telemetry.NewEventLog(telemetry.EventConfig{
		Level:     slog.LevelDebug, // the recorder keeps everything
		Tee:       os.Stderr,
		TeeFormat: *logFormat,
		TeeLevel:  teeLevel,
	})
	requests := telemetry.NewRequestTracker(128, 32)

	// Cluster mode: derive this replica's shard subset from the shared
	// placement arithmetic — every replica and the router compute the
	// same map from the ordered peer list alone, at the library's shard
	// count and replication factor.
	var peers []string
	var ownShards []int
	if *clusterSelf != "" {
		for _, p := range strings.Split(*clusterPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		placement, err := cluster.NewPlacement(peers, keycheck.DefaultShards, cluster.DefaultReplication)
		if err != nil {
			fatal(err)
		}
		ownShards = placement.OwnedBy(*clusterSelf)
		if ownShards == nil {
			fatal(fmt.Errorf("-cluster-self %q does not appear in -cluster-peers %q", *clusterSelf, *clusterPeers))
		}
		logf("cluster mode: replica %s owns shards %v of %d (replication %d)",
			*clusterSelf, ownShards, placement.Shards(), placement.Replication())
	}

	// The study — a saved corpus analyzed, or a simulated one — and the
	// serving index built from its factored set.
	start := time.Now()
	opts := core.Options{KeyBits: *bits, Subsets: *subsets, Telemetry: reg, Events: events}
	var study *core.Study
	if *loadFrom != "" {
		logf("analyzing corpus from %s...", *loadFrom)
		var store *scanstore.Store
		if store, err = loadStore(*loadFrom); err == nil {
			study, err = core.AnalyzeStore(ctx, store, opts)
		}
	} else {
		logf("simulating study corpus (scale %.2f, %d-bit keys, k=%d)...", *scale, *bits, *subsets)
		opts.Seed, opts.Scale = *seed, *scale
		if *anomFleet {
			// The anomalous families ride along with the paper's vendor
			// set so the new verdict classes have live populations.
			opts.Lines = append(population.DefaultDynamics(), population.AnomalyLines()...)
		}
		study, err = core.Run(ctx, opts)
	}
	if err != nil {
		fatal(err)
	}
	snap, err := keycheck.Build(ctx, keycheck.BuildInput{
		Store:       study.Store,
		Fingerprint: study.Fingerprint,
		Shards:      keycheck.DefaultShards,
		OwnShards:   ownShards,
	})
	if err != nil {
		fatal(err)
	}
	logf("index built in %v: %d moduli (%d factored) across %d shards",
		time.Since(start).Round(time.Millisecond), snap.Moduli(), snap.Factored(), keycheck.DefaultShards)
	events.Info(ctx, "index built",
		slog.Int("moduli", snap.Moduli()),
		slog.Int("factored", snap.Factored()),
		slog.Int("shards", keycheck.DefaultShards),
		slog.Duration("elapsed", time.Since(start)))

	svcCfg := keycheck.Config{
		Metrics:  reg,
		Events:   events,
		Requests: requests,
	}
	// In cluster mode every published ingest lands in the sync journal,
	// the feed peers pull to converge without a restart.
	var journal *cluster.Journal
	if *clusterSelf != "" {
		journal = &cluster.Journal{}
		svcCfg.OnIngest = func(rep keycheck.IngestReport) {
			journal.Append(rep.NovelKeys)
		}
	}
	svc := keycheck.NewService(snap, svcCfg)
	limiter := keycheck.NewRateLimiter(*rate, *burst)
	api := keycheck.NewAPI(svc, limiter, reg)
	api.SetAllowIngest(*ingestOK)

	// One mux serves the check API and the diagnostics endpoints, so a
	// single scrape target covers verdict counters, latency histograms,
	// shard gauges, the flight recorder and the request ledger.
	diag := &telemetry.Diagnostics{
		Registry: reg,
		Events:   events,
		Requests: requests,
		Info: map[string]string{
			"binary": "keyserverd",
			"listen": *listen,
			"corpus": *loadFrom,
			"shards": fmt.Sprint(keycheck.DefaultShards),
		},
	}
	mux := api.Mux()
	diagMux := diag.Mux()
	mux.Handle("/metrics", diagMux)
	mux.Handle("/debug/", diagMux)
	if journal != nil {
		mux.Handle("/v1/sync", journal.Handler())
		syncer := &cluster.Syncer{
			Self:     *clusterSelf,
			Peers:    peers,
			Service:  svc,
			Interval: *syncEvery,
			Metrics:  reg,
			Events:   events,
		}
		go syncer.Run(ctx)
	}

	// Steady-state serving keeps the kernel pool's cost ledger fresh:
	// ingest paths publish on completion, but a scrape between ingests
	// should still see current kernel_* gauges.
	go func() {
		tick := time.NewTicker(10 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				kernel.Default().Publish(reg)
			case <-ctx.Done():
				return
			}
		}
	}()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	// Full read/write/idle timeouts so one stuck client (or a SIGKILLed
	// router mid-request) can never pin a connection forever. The write
	// timeout is generous because ingests and debug bundles legitimately
	// take tens of seconds.
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()
	logf("keycheck API on http://%s/v1/check (stats /v1/stats, metrics /metrics)", ln.Addr())
	events.Info(ctx, "serving", slog.String("addr", ln.Addr().String()))

	// SIGUSR1 snapshots the process into a postmortem bundle: metrics,
	// the flight recorder, the request ledger, goroutine and heap
	// profiles, build and config info — one artifact to attach to an
	// incident.
	if *bundleTo != "" {
		usr1 := make(chan os.Signal, 1)
		signal.Notify(usr1, syscall.SIGUSR1)
		go func() {
			for range usr1 {
				if err := diag.WriteBundleFile(*bundleTo); err != nil {
					fmt.Fprintln(os.Stderr, "keyserverd: debug bundle:", err)
					events.Error(ctx, "debug bundle failed", slog.String("error", err.Error()))
					continue
				}
				logf("debug bundle written to %s", *bundleTo)
				events.Info(ctx, "debug bundle written", slog.String("path", *bundleTo))
			}
		}()
	}

	// SIGHUP folds the -load corpus file's new observations into the
	// live index: the file is re-read and ingested as a delta — moduli
	// already indexed are deduplicated, only novel ones pay for GCD work,
	// untouched shards are shared with the predecessor snapshot, and keys
	// that arrived through /v1/ingest stay indexed. The swap is atomic:
	// readers are never blocked and the verdict cache is invalidated.
	// Without -load there is nothing to re-read, and SIGHUP is a no-op
	// rather than the default action that would kill the process.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if *loadFrom == "" {
				logf("SIGHUP: nothing to reload without -load")
				events.Info(ctx, "sighup ignored: no -load corpus")
				continue
			}
			logf("SIGHUP: ingesting corpus delta from %s...", *loadFrom)
			events.Info(ctx, "sighup ingest", slog.String("corpus", *loadFrom))
			store, err := loadStore(*loadFrom)
			if err != nil {
				fmt.Fprintln(os.Stderr, "keyserverd: reload failed, keeping current snapshot:", err)
				continue
			}
			rep, err := svc.Ingest(ctx, keycheck.BuildInput{Store: store})
			if err != nil {
				fmt.Fprintln(os.Stderr, "keyserverd: ingest failed, keeping current snapshot:", err)
				continue
			}
			cur := svc.Index().Snapshot()
			logf("delta ingested in %v: %d novel moduli (%d factored, %d fold-backs), %d duplicates; "+
				"%d/%d shards touched, %d tree nodes reused; serving %d moduli (%d factored)",
				rep.Elapsed.Round(time.Millisecond), rep.DeltaModuli, rep.NewFactored, rep.Refactored,
				rep.Duplicates, rep.TouchedShards, len(rep.Shards), rep.NodesReused,
				cur.Moduli(), cur.Factored())
		}
	}()

	<-ctx.Done()
	logf("shutting down: draining in-flight checks...")
	events.Info(context.Background(), "shutdown", slog.Duration("drain_timeout", drainTimeout))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "keyserverd: shutdown:", err)
	}
	svc.Drain()
	logf("drained; bye")
}

// loadStore reads a saved scan corpus (a scanstore segment based at the
// zero checkpoint) from path.
func loadStore(path string) (*scanstore.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	store := scanstore.New()
	if err := store.LoadSince(f); err != nil {
		return nil, err
	}
	return store, nil
}
