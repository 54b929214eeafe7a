// Package core wires the full study together: it simulates the device
// ecosystem, harvests six years of scan snapshots, runs the (optionally
// cluster-partitioned) batch GCD over every distinct RSA modulus,
// fingerprints implementations, and exposes the longitudinal analysis —
// the complete pipeline of Hastings, Fried and Heninger's IMC 2016
// measurement, end to end.
//
// The run is composed of named internal/pipeline stages — Simulate,
// Harvest, Dedup, BatchGCD, Fingerprint, Analyze — executed under one
// context. Every stage honours cancellation (the math kernels check it
// mid-computation, per product-tree level) and records per-stage stats;
// the accumulated RunReport is returned on the Study and printed by
// `weakkeys -metrics`.
//
// Typical use:
//
//	study, err := core.Run(ctx, core.Options{})
//	...
//	study.Table1(os.Stdout)
//	study.Figure(os.Stdout, 3) // the Juniper time series
package core

import (
	"context"
	"fmt"
	"math/big"

	"github.com/factorable/weakkeys/internal/analysis"
	"github.com/factorable/weakkeys/internal/anomaly"
	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/distgcd"
	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/kernel"
	"github.com/factorable/weakkeys/internal/pipeline"
	"github.com/factorable/weakkeys/internal/population"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// Stage names, in execution order. Run composes all six; AnalyzeStore
// composes the last four over a pre-existing corpus.
const (
	StageSimulate    = "Simulate"
	StageHarvest     = "Harvest"
	StageDedup       = "Dedup"
	StageBatchGCD    = "BatchGCD"
	StageFingerprint = "Fingerprint"
	StageAnalyze     = "Analyze"
	// StageAnomaly is the optional seventh stage (Options.Anomalies): the
	// beyond-batch-GCD pass over the corpus — shared-modulus graph,
	// exponent census, Fermat and small-factor probes.
	StageAnomaly = "Anomaly"
)

// Options configures a study run. The zero value runs the full-scale
// default study.
type Options struct {
	// Seed drives every random choice; same seed, same study.
	Seed int64
	// KeyBits is the RSA modulus size (default 256; see DESIGN.md).
	KeyBits int
	// Scale multiplies all population curves (default 1.0).
	Scale float64
	// Subsets selects the batch GCD flavour: 0 or 1 runs the plain
	// single-tree algorithm; >= 2 runs the paper's k-subset
	// cluster-partitioned variant (the paper used k = 16).
	Subsets int
	// MITMRate enables the Internet Rimon middlebox simulation.
	MITMRate float64
	// BitErrorRate enables transmission bit errors.
	BitErrorRate float64
	// OtherProtocols adds the SSH/POP3S/IMAPS/SMTPS corpora (Table 4).
	OtherProtocols bool
	// IPReuse is the probability that a new device takes over a retired
	// device's address (drives the IP-churn ambiguity in transition
	// analysis). Negative disables; zero selects the default 0.3.
	IPReuse float64
	// Lines overrides the simulated ecosystem (defaults to the full
	// vendor set from the paper's figures).
	Lines []population.Line
	// Progress, when set, receives the pipeline stage events (start,
	// done, error per stage) synchronously on the running goroutine.
	Progress pipeline.ProgressFunc
	// HarvestProgress, when set, is called after each simulated month of
	// the Harvest stage with (monthsDone, monthsTotal).
	HarvestProgress func(done, total int)
	// Telemetry, when set, is the shared metrics registry every layer
	// records into: the pipeline mirrors per-stage stats, the simulation
	// its per-month rates, distgcd its per-node ledger, and core its
	// corpus-level gauges. Serve it live with telemetry.ListenAndServe.
	Telemetry *telemetry.Registry
	// Tracer, when set, records nested spans (pipeline → stage → months
	// and batch-GCD nodes) exportable as Chrome trace_event JSON.
	Tracer *telemetry.Tracer
	// Events, when set, is the structured event log the run narrates
	// into: per-stage lifecycle events from the pipeline runner,
	// inspectable live via /debug/events or post mortem via a bundle.
	Events *telemetry.EventLog
	// Anomalies enables the Anomaly stage: the shared-modulus graph,
	// exponent census, and Fermat/small-factor probe sweep over the
	// corpus, recorded on Study.Anomaly. Off by default — the probe sweep
	// touches every distinct modulus.
	Anomalies bool
	// AnomalyProbe sets the per-modulus factoring budgets for the Anomaly
	// stage (zero value: the anomaly package defaults).
	AnomalyProbe anomaly.Probe
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.KeyBits == 0 {
		o.KeyBits = 256
	}
	switch {
	case o.IPReuse < 0:
		o.IPReuse = 0
	case o.IPReuse == 0:
		o.IPReuse = 0.3
	}
	return o
}

// Study is a completed pipeline run.
type Study struct {
	Opts Options
	// Store holds every host record and distinct certificate/modulus.
	Store *scanstore.Store
	// Sim is the generating simulation (ground truth for validation).
	Sim *population.Simulation
	// Factored is the raw batch GCD output over all distinct moduli.
	Factored []batchgcd.Result
	// GCDStats reports the distributed-run cost profile (Subsets >= 2).
	GCDStats distgcd.Stats
	// Fingerprint is the Section 3.3 implementation analysis.
	Fingerprint *fingerprint.Result
	// Analyzer answers the longitudinal queries.
	Analyzer *analysis.Analyzer
	// Anomaly is the beyond-GCD pass result (Options.Anomalies only).
	Anomaly *anomaly.Report
	// Report is the per-stage cost profile of the run.
	Report *pipeline.RunReport
}

// Run executes the full pipeline.
func Run(ctx context.Context, opts Options) (*Study, error) {
	opts = opts.withDefaults()
	s := &Study{Opts: opts, Store: scanstore.New()}

	// Analyst knowledge flows from the Harvest stage into Fingerprint:
	// the 2012 disclosure identified the IBM nine-prime pool, so the
	// study labels those moduli IBM even though the certificates only
	// name customers; the middlebox modulus gets its IP count tracked.
	var cliqueVendors map[string]string
	var extraIPKeys []string

	stages := []pipeline.Stage{
		{Name: StageSimulate, Run: func(ctx context.Context, st *pipeline.Stats) error {
			// The substitution for the EFF/P&Q/Ecosystem/Rapid7/Censys
			// corpora: a generative device-ecosystem model.
			sim, err := population.New(population.Config{
				Seed:           opts.Seed,
				KeyBits:        opts.KeyBits,
				Scale:          opts.Scale,
				Lines:          opts.Lines,
				MITMRate:       opts.MITMRate,
				BitErrorRate:   opts.BitErrorRate,
				OtherProtocols: opts.OtherProtocols,
				IPReuse:        opts.IPReuse,
				Progress:       opts.HarvestProgress,
				Metrics:        opts.Telemetry,
			})
			if err != nil {
				return fmt.Errorf("core: simulation: %w", err)
			}
			s.Sim = sim
			st.ItemsOut = int64(len(sim.Lines()))
			return nil
		}},
		{Name: StageHarvest, Run: func(ctx context.Context, st *pipeline.Stats) error {
			if err := s.Sim.Run(ctx, s.Store); err != nil {
				return fmt.Errorf("core: scan harvest: %w", err)
			}
			cliqueVendors = make(map[string]string)
			if cl := s.Sim.Factory().Clique("IBM"); cl != nil {
				for _, p := range cl.Primes() {
					cliqueVendors[p.String()] = "IBM"
				}
			}
			if n := s.Sim.MITMModulus(); n != nil {
				extraIPKeys = append(extraIPKeys, string(n.Bytes()))
			}
			st.ItemsOut = int64(s.Store.Stats("").HostRecords)
			return nil
		}},
	}
	stages = append(stages, s.analysisStages(&cliqueVendors, &extraIPKeys)...)
	runner := &pipeline.Runner{Progress: opts.Progress, Metrics: opts.Telemetry, Tracer: opts.Tracer, Events: opts.Events}
	report, err := runner.Run(ctx, stages...)
	s.Report = report
	s.publishCorpusGauges()
	if err != nil {
		// The partial study — with the report of every stage that ran —
		// comes back alongside the error so a cancelled or failed run
		// can still print its cost profile.
		return s, err
	}
	return s, nil
}

// publishCorpusGauges mirrors the study's corpus-level totals into the
// registry after a run (complete or partial).
func (s *Study) publishCorpusGauges() {
	reg := s.Opts.Telemetry
	if reg == nil {
		return
	}
	if s.Store != nil {
		reg.Gauge("core_host_records").Set(float64(s.Store.Stats("").HostRecords))
	}
	reg.Gauge("core_factored_moduli").Set(float64(len(s.Factored)))
	if s.Fingerprint != nil {
		reg.Gauge("core_fingerprint_labels").Set(float64(len(s.Fingerprint.Labels)))
	}
	if s.Report != nil {
		reg.Gauge("core_pipeline_wall_seconds").Set(s.Report.Wall.Seconds())
		reg.Gauge("core_pipeline_cpu_seconds").Set(s.Report.CPU.Seconds())
	}
	// The math stages all execute on the shared kernel pool; surface its
	// cost ledger next to the pipeline's.
	kernel.Default().Publish(reg)
	reg.Counter("core_runs_total").Inc()
}

// AnalyzeStore runs the factoring, fingerprinting and longitudinal
// phases over an existing scan corpus (for example one reloaded with
// scanstore.Load) without simulating an ecosystem. Options fields that
// configure the simulation are ignored; Subsets, KeyBits and Progress
// apply. Without analyst clique knowledge, detected cliques are
// attributed by the majority-label fallback only.
func AnalyzeStore(ctx context.Context, store *scanstore.Store, opts Options) (*Study, error) {
	if opts.KeyBits == 0 {
		opts.KeyBits = 256
	}
	s := &Study{Opts: opts, Store: store}
	var noCliques map[string]string
	var noExtra []string
	runner := &pipeline.Runner{Progress: opts.Progress, Metrics: opts.Telemetry, Tracer: opts.Tracer, Events: opts.Events}
	report, err := runner.Run(ctx, s.analysisStages(&noCliques, &noExtra)...)
	s.Report = report
	s.publishCorpusGauges()
	if err != nil {
		return s, err
	}
	return s, nil
}

// analysisStages composes phases 2-4 — Dedup, BatchGCD, Fingerprint,
// Analyze — over s.Store. cliqueVendors and extraIPKeys are pointers
// because the values are produced by the Harvest stage after the stage
// list is built.
func (s *Study) analysisStages(cliqueVendors *map[string]string, extraIPKeys *[]string) []pipeline.Stage {
	opts := s.Opts
	// Dedup output, consumed by BatchGCD and Fingerprint.
	var moduli []*big.Int
	var keys []string
	stages := []pipeline.Stage{
		{Name: StageDedup, Run: func(ctx context.Context, st *pipeline.Stats) error {
			// The corpus ingest dedup: every distinct modulus ever
			// observed, in first-seen order (the paper's 81M distinct
			// moduli out of hundreds of millions of host records).
			st.ItemsIn = int64(s.Store.Stats("").HostRecords)
			moduli, keys = s.Store.DistinctModuli()
			st.ItemsOut = int64(len(moduli))
			for _, m := range moduli {
				st.Bytes += int64(len(m.Bits())) * int64(wordBytes)
			}
			return nil
		}},
		{Name: StageBatchGCD, Run: func(ctx context.Context, st *pipeline.Stats) error {
			if opts.Subsets >= 2 {
				results, stats, err := distgcd.Run(ctx, moduli, distgcd.Options{Subsets: opts.Subsets, Metrics: opts.Telemetry})
				if err != nil {
					return fmt.Errorf("core: distributed batch GCD: %w", err)
				}
				s.Factored, s.GCDStats = results, stats
				st.ItemsIn, st.ItemsOut, st.Bytes = stats.ItemsIn, stats.ItemsOut, stats.Bytes
			} else {
				results, err := batchgcd.FactorCtx(ctx, moduli)
				if err != nil {
					return fmt.Errorf("core: batch GCD: %w", err)
				}
				s.Factored = results
				st.ItemsIn, st.ItemsOut = int64(len(moduli)), int64(len(results))
			}
			return nil
		}},
		{Name: StageFingerprint, Run: func(ctx context.Context, st *pipeline.Stats) error {
			divisors := make(map[string]*big.Int, len(s.Factored))
			for _, r := range s.Factored {
				divisors[keys[r.Index]] = r.Divisor
			}
			ipCount := make(map[string]int)
			for key := range divisors {
				ipCount[key] = len(s.Store.IPsServingModulus(key, ""))
			}
			for _, key := range *extraIPKeys {
				ipCount[key] = len(s.Store.IPsServingModulus(key, ""))
			}
			certs := s.Store.DistinctCerts()
			st.ItemsIn = int64(len(certs))
			s.Fingerprint = fingerprint.Analyze(fingerprint.Input{
				Certs:         certs,
				Divisors:      divisors,
				IPCount:       ipCount,
				CliqueVendors: *cliqueVendors,
				ModulusBits:   opts.KeyBits,
			})
			st.ItemsOut = int64(len(s.Fingerprint.Labels))
			return nil
		}},
		{Name: StageAnalyze, Run: func(ctx context.Context, st *pipeline.Stats) error {
			// Longitudinal analysis over the factored (bit-error-
			// excluded) vulnerable set.
			vuln := make(map[string]bool, len(s.Fingerprint.Factors))
			for key := range s.Fingerprint.Factors {
				vuln[key] = true
			}
			st.ItemsIn = int64(len(vuln))
			s.Analyzer = analysis.New(s.Store, s.Fingerprint.Labels, vuln)
			excluded := make(map[string]bool, len(s.Fingerprint.BitErrors))
			for _, be := range s.Fingerprint.BitErrors {
				excluded[be.ModKey] = true
			}
			s.Analyzer.ExcludeModuli(excluded)
			st.ItemsOut = st.ItemsIn - int64(len(excluded))
			return nil
		}},
	}
	if opts.Anomalies {
		stages = append(stages, pipeline.Stage{Name: StageAnomaly, Run: func(ctx context.Context, st *pipeline.Stats) error {
			rep, err := anomaly.Analyze(ctx, anomaly.Config{
				Store:   s.Store,
				Probe:   opts.AnomalyProbe,
				Metrics: opts.Telemetry,
				Events:  opts.Events,
			})
			if err != nil {
				return fmt.Errorf("core: anomaly pass: %w", err)
			}
			s.Anomaly = rep
			st.ItemsIn = int64(rep.Moduli)
			st.ItemsOut = int64(rep.SharedCount + rep.FermatWeakCount +
				rep.SmallFactorCount + rep.Exponents.Anomalous())
			return nil
		}})
	}
	return stages
}

const wordBytes = 32 << (^big.Word(0) >> 63) / 8 // 4 or 8
