// Command zscand runs the ZMap-class scan engine against a simulated
// device fleet: stateless probes in a pseudorandom full-cycle
// permutation order, a paced sender decoupled from the validate/harvest
// path, coordination-free sharding, delta checkpoints, and a
// continuous-ingest bridge that feeds harvested moduli straight into a
// keyserverd (or keyrouter) POST /v1/ingest endpoint — so keys the scan
// discovers flip /v1/check verdicts without any restart.
//
// Sharding needs no coordination: N processes launched with the same
// -space/-seed and -shard 0/N ... N-1/N provably split the address
// space with zero overlap and zero omission.
//
// Examples:
//
//	zscand -space 1048576 -devices 512 -rate 100000 -cycles 2
//	zscand -shard 0/2 -ingest-url http://127.0.0.1:8446/v1/ingest
//	zscand -dry-run -json plan.json   # fleet plan + weak exemplars, no scan
//
// The process exits after -cycles sweeps; SIGINT/SIGTERM stop the
// sweep, flush the ingest bridge and still write the report.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/factorable/weakkeys/internal/faults"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
	"github.com/factorable/weakkeys/internal/zscan"
)

// output is the report envelope written by -json: the scan plan, the
// engine's accounting and the ingest bridge's ledger.
type output struct {
	Space         uint64   `json:"space"`
	Shard         int      `json:"shard"`
	Shards        int      `json:"shards"`
	Seed          int64    `json:"seed"`
	Devices       int      `json:"devices"`
	WeakExemplars []string `json:"weak_exemplars,omitempty"`

	Scan   *zscan.Report      `json:"scan,omitempty"`
	Ingest *zscan.BridgeStats `json:"ingest,omitempty"`
}

func main() {
	var (
		space      = flag.Uint64("space", 1<<20, "simulated address-space size")
		devicesN   = flag.Int("devices", 64, "devices scattered over the space")
		vulnerable = flag.Float64("vulnerable", 0.25, "fraction of devices with shared-prime keys")
		bits       = flag.Int("bits", 256, "RSA modulus size for fleet keys")
		fleetSeed  = flag.Int64("fleet-seed", 2016, "fleet placement/key seed")
		seed       = flag.Int64("seed", 1, "permutation seed (generator + start element)")
		shardSpec  = flag.String("shard", "0/1", "this process's shard as i/n; all n processes must share -space and -seed")
		cycles     = flag.Int("cycles", 1, "full-cycle sweeps to run (losses recover on the next sweep)")
		rate       = flag.Float64("rate", 0, "probes/sec token-bucket cap (0 = unpaced)")
		chaosEvery = flag.Int("chaos-every", 0, "fault every Nth connection per device (reset); 0 disables")
		ingestURL  = flag.String("ingest-url", "", "POST harvested moduli to this /v1/ingest endpoint")
		ckptDir    = flag.String("checkpoint-dir", "", "write scanstore delta segments here")
		ckptEvery  = flag.Int("checkpoint-every", 256, "stored observations per delta checkpoint")
		jsonOut    = flag.String("json", "", "write the JSON report to this file (- or empty prints to stdout)")
		dryRun     = flag.Bool("dry-run", false, "print the fleet plan (devices, weak exemplars) without scanning")
		diagAddr   = flag.String("diag", "", "serve /metrics and /debug on this address (:0 picks a port)")
		logLevel   = flag.String("log-level", "info", "stderr log floor: debug, info, warn or error")
		quiet      = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "zscand:", err)
		os.Exit(1)
	}

	shard, shards, err := parseShard(*shardSpec)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := telemetry.New()
	teeLevel, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	events := telemetry.NewEventLog(telemetry.EventConfig{
		Level:     slog.LevelDebug,
		Tee:       os.Stderr,
		TeeFormat: "text",
		TeeLevel:  teeLevel,
	})

	logf("building fleet: %d devices over %d addresses (%.0f%% vulnerable, seed %d)...",
		*devicesN, *space, *vulnerable*100, *fleetSeed)
	fleet, err := zscan.NewSimFleet(zscan.FleetOptions{
		Space:       *space,
		Devices:     *devicesN,
		Vulnerable:  *vulnerable,
		Bits:        *bits,
		Seed:        *fleetSeed,
		FaultEvery:  *chaosEvery,
		FaultAction: faults.Reset,
	})
	if err != nil {
		fatal(err)
	}

	out := output{
		Space:         *space,
		Shard:         shard,
		Shards:        shards,
		Seed:          *seed,
		Devices:       fleet.DeviceCount(),
		WeakExemplars: fleet.WeakExemplars(),
	}
	if *dryRun {
		writeReport(*jsonOut, out, fatal)
		return
	}

	if *diagAddr != "" {
		diag := &telemetry.Diagnostics{
			Registry: reg,
			Events:   events,
			Info: map[string]string{
				"binary": "zscand",
				"shard":  *shardSpec,
				"space":  fmt.Sprint(*space),
			},
		}
		ln, err := net.Listen("tcp", *diagAddr)
		if err != nil {
			fatal(err)
		}
		go func() {
			srv := &http.Server{Handler: diag.Mux(), ReadHeaderTimeout: 5 * time.Second}
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "zscand: diagnostics:", err)
			}
		}()
		logf("diagnostics on http://%s/metrics", ln.Addr())
	}

	var bridge *zscan.Bridge
	if *ingestURL != "" {
		bridge, err = zscan.NewBridge(zscan.BridgeOptions{
			URL:     *ingestURL,
			Seed:    *seed,
			Metrics: reg,
			Events:  events,
		})
		if err != nil {
			fatal(err)
		}
		logf("ingest bridge -> %s", *ingestURL)
	}

	store := scanstore.New()
	if *ckptDir != "" {
		// A restart into a non-empty checkpoint dir resumes the delta
		// chain: replay the existing segments so new ones chain onto them
		// instead of overwriting the history.
		segs, err := zscan.LoadCheckpoints(*ckptDir, store)
		if err != nil {
			fatal(err)
		}
		if segs > 0 {
			logf("resumed %d checkpoint segment(s) from %s (%d records)", segs, *ckptDir, len(store.Records()))
		}
	}
	eng, err := zscan.New(zscan.Options{
		Space:           *space,
		Shard:           shard,
		Shards:          shards,
		Seed:            *seed,
		Cycles:          *cycles,
		Rate:            *rate,
		Prober:          fleet,
		Store:           store,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		Ingest:          bridge,
		Metrics:         reg,
		Events:          events,
	})
	if err != nil {
		fatal(err)
	}

	logf("scanning shard %d/%d of %d addresses, %d cycle(s)...", shard, shards, *space, *cycles)
	rep, runErr := eng.Run(ctx)
	if bridge != nil {
		bridge.Close()
		stats := bridge.Stats()
		out.Ingest = &stats
	}
	out.Scan = &rep

	writeReport(*jsonOut, out, fatal)
	logf("scan done: %d probes in %v (%.0f probes/sec), %d hits, %d stored, %d novel moduli, %d checkpoints",
		rep.Probes, rep.Elapsed.Round(time.Millisecond), rep.ProbesPerSec,
		rep.Hits, rep.Stored, rep.NovelModuli, rep.Checkpoints)
	if out.Ingest != nil {
		logf("ingest: %d delivered in %d batches (%d retries, %d dropped, %d factored server-side)",
			out.Ingest.Delivered, out.Ingest.Batches, out.Ingest.Retries,
			out.Ingest.Dropped, out.Ingest.Factored)
	}
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		fatal(runErr)
	}
}

// parseShard parses "i/n" into (i, n).
func parseShard(spec string) (int, int, error) {
	parts := strings.Split(spec, "/")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("-shard %q: want i/n, e.g. 0/4", spec)
	}
	i, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("-shard %q: bad index: %v", spec, err)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("-shard %q: bad count: %v", spec, err)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("-shard %q: index must be in [0,%d)", spec, n)
	}
	return i, n, nil
}

func writeReport(path string, out output, fatal func(error)) {
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if path == "" || path == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fatal(err)
	}
}
