// Package core wires the full study together: it simulates the device
// ecosystem, harvests six years of scan snapshots, runs the (optionally
// cluster-partitioned) batch GCD over every distinct RSA modulus,
// fingerprints implementations, and exposes the longitudinal analysis —
// the complete pipeline of Hastings, Fried and Heninger's IMC 2016
// measurement, end to end.
//
// The run is a list of named stages — Simulate, Harvest, Dedup,
// BatchGCD, Fingerprint, Analyze — run one after another under one
// context (pipeline.Run). Every stage honours cancellation (the math
// kernels check it mid-computation, per product-tree level) and records
// its cost; the per-stage Report is returned on the Study and printed by
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
	// Lines overrides the simulated ecosystem (defaults to the full
	// vendor set from the paper's figures).
	Lines []population.Line
	// Telemetry, when set, is the shared metrics registry every layer
	// records into: the stage loop mirrors per-stage stats, the simulation
	// its per-month rates, distgcd its per-node ledger, and core its
	// corpus-level gauges. Serve it live with telemetry.ListenAndServe.
	Telemetry *telemetry.Registry
	// Tracer, when set, records nested spans (pipeline → stage → months
	// and batch-GCD nodes) exportable as Chrome trace_event JSON.
	Tracer *telemetry.Tracer
	// Events, when set, is the structured event log the run narrates
	// into: a start and a done (or failed) event per stage, and the
	// harvest's progress every 24 months, all at info; inspectable live
	// via /debug/events or post mortem via a bundle.
	Events *telemetry.EventLog
	// Anomalies enables the Anomaly stage: the shared-modulus graph,
	// exponent census, and Fermat/small-factor probe sweep over the
	// corpus, recorded on Study.Anomaly. Off by default — the probe sweep
	// touches every distinct modulus.
	Anomalies bool
}

// ipReuse is the probability that a new device takes over a retired
// device's address (drives the IP-churn ambiguity in transition
// analysis).
const ipReuse = 0.3

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.KeyBits == 0 {
		o.KeyBits = 256
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
	Report *pipeline.Report
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
	// The corpus's record count, taken once when Harvest ends (or is
	// cut short) for its report, Dedup's and the corpus gauges.
	var hostRecords int

	stages := []pipeline.Stage{
		{Name: StageSimulate, Run: func(ctx context.Context, st *pipeline.StageReport) error {
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
				IPReuse:        ipReuse,
				Metrics:        opts.Telemetry,
			})
			if err != nil {
				return fmt.Errorf("core: simulation: %w", err)
			}
			s.Sim = sim
			st.ItemsOut = int64(len(sim.Lines()))
			return nil
		}},
		{Name: StageHarvest, Run: func(ctx context.Context, st *pipeline.StageReport) error {
			err := s.Sim.Run(ctx, s.Store)
			hostRecords = s.Store.Stats("").HostRecords
			if err != nil {
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
			st.ItemsOut = int64(hostRecords)
			return nil
		}},
	}
	stages = append(stages, s.analysisStages(&cliqueVendors, &extraIPKeys, &hostRecords)...)
	err := s.runStages(ctx, stages...)
	s.publishCorpusGauges(hostRecords)
	// The partial study — with the report of every stage that ran — comes
	// back alongside an error so a cancelled or failed run can still
	// print its cost profile.
	return s, err
}

// runStages runs the stages through pipeline.Run, recorded in the
// study's telemetry handles, and keeps the report, partial or not.
func (s *Study) runStages(ctx context.Context, stages ...pipeline.Stage) error {
	var err error
	s.Report, err = pipeline.Run(ctx, pipeline.Sinks{
		Telemetry: s.Opts.Telemetry,
		Tracer:    s.Opts.Tracer,
		Events:    s.Opts.Events,
	}, stages...)
	return err
}

// publishCorpusGauges mirrors the study's corpus-level totals, with
// the corpus's hostRecords, into the registry after a run (complete or
// partial).
func (s *Study) publishCorpusGauges(hostRecords int) {
	reg := s.Opts.Telemetry
	if reg == nil {
		return
	}
	reg.Gauge("core_host_records").Set(float64(hostRecords))
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
// scanstore.Store.LoadSince) without simulating an ecosystem. Options
// fields that configure the simulation are ignored; Subsets, KeyBits,
// Anomalies and the telemetry handles apply. Without analyst clique
// knowledge, detected cliques are attributed by the majority-label
// fallback only.
func AnalyzeStore(ctx context.Context, store *scanstore.Store, opts Options) (*Study, error) {
	if opts.KeyBits == 0 {
		opts.KeyBits = 256
	}
	s := &Study{Opts: opts, Store: store}
	var noCliques map[string]string
	var noExtra []string
	hostRecords := store.Stats("").HostRecords
	err := s.runStages(ctx, s.analysisStages(&noCliques, &noExtra, &hostRecords)...)
	s.publishCorpusGauges(hostRecords)
	return s, err
}

// analysisStages composes phases 2-4 — Dedup, BatchGCD, Fingerprint,
// Analyze — over s.Store. cliqueVendors, extraIPKeys and hostRecords
// are pointers because the values are produced by the Harvest stage
// after the stage list is built.
func (s *Study) analysisStages(cliqueVendors *map[string]string, extraIPKeys *[]string, hostRecords *int) []pipeline.Stage {
	opts := s.Opts
	// Dedup output, consumed by BatchGCD and Fingerprint.
	var moduli []*big.Int
	var keys []string
	stages := []pipeline.Stage{
		{Name: StageDedup, Run: func(ctx context.Context, st *pipeline.StageReport) error {
			// The corpus ingest dedup: every distinct modulus ever
			// observed, in first-seen order (the paper's 81M distinct
			// moduli out of hundreds of millions of host records).
			st.ItemsIn = int64(*hostRecords)
			moduli, keys = s.Store.DistinctModuli()
			st.ItemsOut = int64(len(moduli))
			for _, m := range moduli {
				st.Bytes += int64(len(m.Bits())) * int64(wordBytes)
			}
			return nil
		}},
		{Name: StageBatchGCD, Run: func(ctx context.Context, st *pipeline.StageReport) error {
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
		{Name: StageFingerprint, Run: func(ctx context.Context, st *pipeline.StageReport) error {
			divisors := make(map[string]*big.Int, len(s.Factored))
			for _, r := range s.Factored {
				divisors[keys[r.Index]] = r.Divisor
			}
			served := s.Store.ByModulus()
			ipCount := make(map[string]int)
			for key := range divisors {
				ipCount[key] = len(served[key].IPs)
			}
			for _, key := range *extraIPKeys {
				ipCount[key] = len(served[key].IPs)
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
		{Name: StageAnalyze, Run: func(ctx context.Context, st *pipeline.StageReport) error {
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
		stages = append(stages, pipeline.Stage{Name: StageAnomaly, Run: func(ctx context.Context, st *pipeline.StageReport) error {
			rep, err := anomaly.Analyze(ctx, anomaly.Config{
				Store:   s.Store,
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
