// Command keyrouter fronts a cluster of keyserverd replicas: it owns no
// index itself, only the placement arithmetic. A /v1/check for a corpus
// member is answered by the replica owning the modulus's home shard in
// one hop; a novel modulus is scatter-gathered across owners of every
// shard — the fewest replicas that hold them all — so the distributed
// GCD sweep still covers the whole corpus.
// Replica failures retry against placement peers with backoff, slow
// home forwards are hedged to the secondary owner, and when a shard has
// no reachable owner the router answers from the coverage it has with
// "degraded": true and the unreachable shard list instead of a 500.
//
//	POST /v1/check       route one modulus/certificate check
//	POST /v1/ingest      write new moduli to every owner of their home shards
//	GET  /v1/exemplars   proxied from any usable replica
//	GET  /cluster/status placement, per-replica health, breakers
//	GET  /healthz        router liveness
//	GET  /readyz         200 only while every shard has a usable owner
//	/metrics /debug/*    the usual diagnostics pillar
//
// The -replicas list must be the same ordered list every replica was
// started with (-cluster-peers): placement is pure arithmetic over that
// list, so agreement on it is the only coordination the cluster needs.
//
// Example (three replicas, replication 2):
//
//	keyserverd -listen 127.0.0.1:9001 -cluster-self 127.0.0.1:9001 \
//	    -cluster-peers 127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003 &
//	... same for :9002 and :9003 ...
//	keyrouter -listen 127.0.0.1:9000 \
//	    -replicas 127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003
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
	"github.com/factorable/weakkeys/internal/keycheck"
	"github.com/factorable/weakkeys/internal/telemetry"
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:9000", "serve the routed check API on this address; :0 picks a port")
		replicas     = flag.String("replicas", "", "comma-separated ordered host:port list of the keyserverd replicas (required)")
		shards       = flag.Int("shards", keycheck.DefaultShards, "cluster-wide shard count (must match the replicas)")
		replication  = flag.Int("replication", cluster.DefaultReplication, "shard replication factor (must match the replicas)")
		reqTimeout   = flag.Duration("request-timeout", 10*time.Second, "per-replica request timeout")
		retries      = flag.Int("retries", 3, "extra scatter rounds for shards whose owner failed (negative: none)")
		retryBackoff = flag.Duration("retry-backoff", 50*time.Millisecond, "first inter-round retry delay (doubled per round, jittered)")
		retryBudget  = flag.Int64("retry-budget", 10000, "lifetime cap on retry requests (negative disables)")
		hedgeAfter   = flag.Duration("hedge-after", 250*time.Millisecond, "duplicate a slow home forward to the peer owner after this long (negative disables)")
		probeEvery   = flag.Duration("probe-interval", 500*time.Millisecond, "replica /readyz probe interval")
		probeTimeout = flag.Duration("probe-timeout", time.Second, "replica /readyz probe timeout")
		brkFailures  = flag.Int("breaker-failures", 3, "consecutive failures that open a replica's circuit breaker")
		brkCooldown  = flag.Duration("breaker-cooldown", time.Second, "how long an open breaker waits before the half-open probe")
		drainFor     = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline")
		quiet        = flag.Bool("q", false, "suppress progress output")
		logLevel     = flag.String("log-level", "info", "stderr log floor: debug, info, warn or error")
		logFormat    = flag.String("log-format", "text", "stderr log encoding: text or json")
		eventsN      = flag.Int("events", 1024, "flight-recorder capacity in events")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "keyrouter:", err)
		os.Exit(1)
	}

	var addrs []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			addrs = append(addrs, r)
		}
	}
	if len(addrs) == 0 {
		fatal(errors.New("-replicas is required (comma-separated host:port list)"))
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
		Size:      *eventsN,
		Level:     slog.LevelDebug,
		Tee:       os.Stderr,
		TeeFormat: *logFormat,
		TeeLevel:  teeLevel,
	})

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Replicas:        addrs,
		Shards:          *shards,
		Replication:     *replication,
		RequestTimeout:  *reqTimeout,
		Retries:         *retries,
		RetryBackoff:    *retryBackoff,
		RetryBudget:     *retryBudget,
		HedgeAfter:      *hedgeAfter,
		ProbeInterval:   *probeEvery,
		ProbeTimeout:    *probeTimeout,
		BreakerFailures: *brkFailures,
		BreakerCooldown: *brkCooldown,
		Metrics:         reg,
		Events:          events,
	})
	if err != nil {
		fatal(err)
	}
	rt.Start(ctx)
	p := rt.Placement()
	for _, addr := range addrs {
		logf("replica %s owns shards %v", addr, p.OwnedBy(addr))
	}

	diag := &telemetry.Diagnostics{
		Registry: reg,
		Events:   events,
		Info: map[string]string{
			"binary":      "keyrouter",
			"listen":      *listen,
			"replicas":    strings.Join(addrs, ","),
			"shards":      fmt.Sprint(*shards),
			"replication": fmt.Sprint(p.Replication()),
		},
	}
	mux := rt.Mux()
	diagMux := diag.Mux()
	mux.Handle("/metrics", diagMux)
	mux.Handle("/debug/", diagMux)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
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
	logf("cluster router on http://%s/v1/check (%d replicas, %d shards, replication %d)",
		ln.Addr(), len(addrs), p.Shards(), p.Replication())
	events.Info(ctx, "serving", slog.String("addr", ln.Addr().String()))

	<-ctx.Done()
	logf("shutting down...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "keyrouter: shutdown:", err)
	}
	logf("bye")
}
