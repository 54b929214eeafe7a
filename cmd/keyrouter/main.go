// Command keyrouter fronts a cluster of keyserverd replicas: it owns no
// index itself, only the placement arithmetic. A /v1/check for a corpus
// member is answered by the replica owning the modulus's home shard in
// one hop; a novel modulus is scatter-gathered across owners of every
// shard — the fewest replicas that hold them all — so the distributed
// GCD sweep still covers the whole corpus.
// Replica failures retry against placement peers with backoff (3 extra
// rounds from 50ms), home forwards slower than 250ms are hedged to the
// secondary owner, and when a shard has no reachable owner the router
// answers from the coverage it has with "degraded": true and the
// unreachable shard list instead of a 500.
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
// list and two constants, keycheck.DefaultShards shards at
// cluster.DefaultReplication, so agreement on the list is the only
// coordination the cluster needs.
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
	"github.com/factorable/weakkeys/internal/telemetry"
)

// drainTimeout is the graceful shutdown deadline.
const drainTimeout = 10 * time.Second

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:9000", "serve the routed check API on this address; :0 picks a port")
		replicas  = flag.String("replicas", "", "comma-separated ordered host:port list of the keyserverd replicas (required)")
		quiet     = flag.Bool("q", false, "suppress progress output")
		logLevel  = flag.String("log-level", "info", "stderr log floor: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "stderr log encoding: text or json")
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
		Level:     slog.LevelDebug,
		Tee:       os.Stderr,
		TeeFormat: *logFormat,
		TeeLevel:  teeLevel,
	})

	// Shards and replication are the library's constants, the same ones
	// every keyserverd computes its placement with: the peer list is the
	// only thing the cluster has to agree on.
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Replicas: addrs,
		Metrics:  reg,
		Events:   events,
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
			"shards":      fmt.Sprint(p.Shards()),
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
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "keyrouter: shutdown:", err)
	}
	logf("bye")
}
