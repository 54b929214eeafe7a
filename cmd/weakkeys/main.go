// Command weakkeys runs the full weak-key study end to end — ecosystem
// simulation, scan harvesting, batch GCD, fingerprinting, longitudinal
// analysis — and prints any of the paper's tables and figures.
//
// Examples:
//
//	weakkeys -all                 # every table and figure, full scale
//	weakkeys -scale 0.2 -table 1  # quick run, dataset summary
//	weakkeys -figure 3            # the Juniper time series
//	weakkeys -csv Juniper         # CSV series for external plotting
//	weakkeys -metrics -table 1    # plus the per-stage pipeline report
//	weakkeys -listen :8080        # live /metrics, /debug/vars, pprof
//	weakkeys -trace run.json      # Chrome trace_event span export
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"time"

	"github.com/factorable/weakkeys/internal/analysis"
	"github.com/factorable/weakkeys/internal/core"
	"github.com/factorable/weakkeys/internal/report"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
)

func main() {
	var (
		seed      = flag.Int64("seed", 2016, "simulation seed")
		scale     = flag.Float64("scale", 1.0, "population scale multiplier")
		bits      = flag.Int("bits", 256, "RSA modulus size for simulated keys")
		subsets   = flag.Int("subsets", 16, "batch GCD subsets k (>=2 distributes; 1 = single tree)")
		mitm      = flag.Float64("mitm", 0.002, "per-device probability of the key-substituting middlebox")
		bitErr    = flag.Float64("biterr", 0.0002, "per-observation bit-error probability")
		other     = flag.Bool("other-protocols", true, "include SSH and mail-protocol corpora (Table 4)")
		table     = flag.Int("table", 0, "print one paper table (1-5)")
		figure    = flag.Int("figure", 0, "print one paper figure (1-10)")
		all       = flag.Bool("all", false, "print every table and figure")
		summary   = flag.Bool("summary", false, "print the headline-findings summary")
		anomalies = flag.Bool("anomalies", false, "run the beyond-GCD anomaly pass (shared moduli, exponent census, Fermat/small-factor probes) and print its summary")
		csvFor    = flag.String("csv", "", "emit the CSV time series for a vendor (e.g. Juniper)")
		vendor    = flag.String("vendor", "", "print the time-series chart for one vendor")
		sources   = flag.Bool("sources", false, "print the per-source corpus accounting")
		export    = flag.String("export", "", "write per-vendor CSV series into a directory")
		saveTo    = flag.String("save", "", "save the scan corpus to a file after the run")
		loadFrom  = flag.String("load", "", "analyze a previously saved scan corpus instead of simulating")
		metrics   = flag.Bool("metrics", false, "print the per-stage pipeline report (wall, CPU, items in/out) after the run")
		listen    = flag.String("listen", "", "serve live diagnostics on this address (/metrics, /debug/vars, /debug/pprof); :0 picks a port")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON file of the run's spans")
		hold      = flag.Duration("hold", 0, "keep the diagnostics server alive this long after the run (for scraping short runs)")
		quiet     = flag.Bool("q", false, "suppress progress output (raises the stderr log floor to warn)")
		logLevel  = flag.String("log-level", "info", "stderr structured-log floor: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "stderr structured-log encoding: text or json")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	// Ctrl-C cancels the pipeline end to end: the context reaches every
	// stage, including the product-tree levels inside the batch GCD, so
	// interrupting mid-computation returns promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// One registry is shared by every layer; the tracer only exists when
	// a trace file was requested.
	reg := telemetry.New()
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.NewTracer()
	}
	teeLevel, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "weakkeys:", err)
		os.Exit(1)
	}
	if *quiet {
		teeLevel = max(teeLevel, slog.LevelWarn)
	}
	if *logFormat != "text" && *logFormat != "json" {
		fmt.Fprintf(os.Stderr, "weakkeys: -log-format must be text or json, got %q\n", *logFormat)
		os.Exit(1)
	}
	events := telemetry.NewEventLog(telemetry.EventConfig{
		Level:     slog.LevelDebug,
		Tee:       os.Stderr,
		TeeFormat: *logFormat,
		TeeLevel:  teeLevel,
	})
	writeTrace := func() {
		if *traceOut == "" {
			return
		}
		if err := tracer.WriteFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "weakkeys: trace:", err)
			return
		}
		logf("wrote trace to %s (load at chrome://tracing or ui.perfetto.dev)", *traceOut)
	}
	diagnostics := &telemetry.Diagnostics{
		Registry: reg,
		Events:   events,
		Tracer:   tracer,
		Info:     map[string]string{"binary": "weakkeys"},
	}
	var diag *telemetry.Server
	if *listen != "" {
		var err error
		diag, err = diagnostics.ListenAndServe(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "weakkeys:", err)
			os.Exit(1)
		}
		defer diag.Close()
		logf("diagnostics on http://%s/metrics (also /debug/vars, /debug/events, /debug/bundle, /debug/pprof)", diag.Addr)
	}
	holdOpen := func() {
		if diag != nil && *hold > 0 {
			logf("holding diagnostics server for %v...", *hold)
			select {
			case <-time.After(*hold):
			case <-ctx.Done():
			}
		}
	}

	start := time.Now()
	var study *core.Study
	if *loadFrom != "" {
		logf("loading corpus from %s...", *loadFrom)
		f, ferr := os.Open(*loadFrom)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "weakkeys:", ferr)
			os.Exit(1)
		}
		store := scanstore.New()
		lerr := store.LoadSince(f)
		f.Close()
		if lerr != nil {
			fmt.Fprintln(os.Stderr, "weakkeys:", lerr)
			os.Exit(1)
		}
		study, err = core.AnalyzeStore(ctx, store, core.Options{
			KeyBits:   *bits,
			Subsets:   *subsets,
			Telemetry: reg,
			Events:    events,
			Tracer:    tracer,
			Anomalies: *anomalies,
		})
	} else {
		logf("running pipeline (scale %.2f, %d-bit keys, k=%d)...", *scale, *bits, *subsets)
		study, err = core.Run(ctx, core.Options{
			Seed:           *seed,
			KeyBits:        *bits,
			Scale:          *scale,
			Subsets:        *subsets,
			MITMRate:       *mitm,
			BitErrorRate:   *bitErr,
			OtherProtocols: *other,
			Telemetry:      reg,
			Events:         events,
			Tracer:         tracer,
			Anomalies:      *anomalies,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "weakkeys:", err)
		// A failed or interrupted run still has a cost profile: print the
		// partial per-stage report and the final registry snapshot so the
		// work done before the failure is not lost.
		if *metrics && study != nil && study.Report != nil {
			fmt.Fprintln(os.Stderr, "partial per-stage report:")
			study.Report.WriteText(os.Stderr)
			fmt.Fprintln(os.Stderr, "final metrics snapshot:")
			reg.Snapshot().WritePrometheus(os.Stderr)
		}
		writeTrace()
		holdOpen()
		os.Exit(1)
	}
	cs := study.Analyzer.CorpusStats()
	logf("pipeline done in %v: %d host records, %d distinct moduli, %d factored",
		time.Since(start).Round(time.Millisecond), cs.HTTPSHostRecords, cs.TotalDistinctModuli, cs.VulnerableModuli)
	if *metrics {
		if err := study.Report.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "weakkeys:", err)
			os.Exit(1)
		}
	}

	out := os.Stdout
	fail := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "weakkeys:", err)
			os.Exit(1)
		}
	}
	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		fail(err)
		fail(study.Store.SaveDelta(f, scanstore.Checkpoint{}))
		fail(f.Close())
		logf("saved scan corpus to %s", *saveTo)
	}
	if *export != "" {
		files, err := study.ExportCSV(*export)
		fail(err)
		logf("exported %d CSV series to %s", files, *export)
	}
	switch {
	case *all:
		for n := 1; n <= 5; n++ {
			fail(study.Table(out, n))
			fmt.Fprintln(out)
		}
		fail(study.Sources(out))
		fmt.Fprintln(out)
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
			fail(study.Figure(out, n))
			fmt.Fprintln(out)
		}
		fail(study.Summary(out))
	case *sources:
		fail(study.Sources(out))
	case *summary:
		fail(study.Summary(out))
	case *table != 0:
		fail(study.Table(out, *table))
	case *figure != 0:
		fail(study.Figure(out, *figure))
	case *csvFor != "":
		series := study.VendorSeries(*csvFor, "")
		fail(reportCSV(out, series))
	case *vendor != "":
		series := study.VendorSeries(*vendor, "")
		series.Name = *vendor + " hosts (total and vulnerable)"
		fail(report.SeriesChart(out, series, 8))
	default:
		if !*anomalies {
			fail(study.Table(out, 1))
			fmt.Fprintln(out)
			fail(study.Figure(out, 1))
		}
	}
	if *anomalies {
		fmt.Fprintln(out)
		fail(study.Anomalies(out))
	}
	writeTrace()
	holdOpen()
}

// reportCSV writes the series as CSV on w.
func reportCSV(w *os.File, s analysis.Series) error {
	return report.SeriesCSV(w, s)
}
