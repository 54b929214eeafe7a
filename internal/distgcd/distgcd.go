// Package distgcd implements the cluster-parallel batch GCD variant of
// Hastings, Fried and Heninger (IMC 2016, Section 3.2 and Figure 2).
//
// The single-tree batch GCD bottlenecks on the gigantic product at the
// centre of the tree: GMP (and math/big) multiplication is single-threaded
// per operation, and at the paper's scale the central product of 81
// million moduli dominates both time and memory. The paper's modification
// divides the n moduli into k subsets, computes only the k subset products
// P1..Pk, and pairs every product with every subset's remainder tree. The
// total work rises (quadratic in k) but each unit is small enough to run
// in parallel across cluster nodes and the monster central product is
// never formed: the authors report 86 minutes across 22 machines versus
// 500 minutes on one large-memory machine.
//
// Here each cluster node is a goroutine with its own subset and product
// tree; subset products are exchanged over channels, standing in for the
// cluster interconnect. The arithmetic is identical to the real system.
package distgcd

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"time"

	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/faults"
	"github.com/factorable/weakkeys/internal/kernel"
	"github.com/factorable/weakkeys/internal/pipeline"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// Options configures a distributed run.
type Options struct {
	// Subsets is the number of subsets k the moduli are divided into
	// (one per simulated cluster node). The paper used k = 16 for the
	// 81M-moduli run. Must be >= 1; 1 degenerates to the single-tree
	// algorithm on one node.
	Subsets int
	// Metrics, when set, receives live run telemetry: distgcd_moduli,
	// distgcd_subsets, distgcd_results, distgcd_total_cpu_seconds and
	// distgcd_peak_node_tree_bytes gauges, plus per-node
	// distgcd_node_tree_bytes{node="i"} / distgcd_node_busy_seconds
	// gauges updated as each node finishes a phase — the per-node memory
	// and CPU ledger the paper reports per cluster machine. The
	// supervisor adds distgcd_node_failures_total,
	// distgcd_node_reassignments_total and distgcd_stragglers_total.
	Metrics *telemetry.Registry
	// Events, when set, records the supervisor's structured incident
	// narrative in the flight recorder: node crashes and subset
	// reassignments at warn, straggler speculation at info, and subsets
	// permanently lost at error — the who/when/why behind the counters.
	Events *telemetry.EventLog
	// Faults, when set, injects node failures for chaos testing: a node
	// whose (id, phase) is armed dies at phase entry with
	// faults.ErrNodeCrash (standing in for a machine loss) or stalls
	// before starting work. Injections are one-shot, so a reassigned
	// re-run of the subset survives — the recovery path under test.
	Faults *faults.NodePlan
	// StragglerTimeout, when > 0, arms speculative execution: a node
	// that has not finished its current phase within this window is
	// duplicated onto a fresh worker and the first finisher wins (the
	// MapReduce "backup task" defence). Zero disables speculation.
	StragglerTimeout time.Duration
	// MaxReassign bounds how many times a dead node's subset is
	// reassigned before the run abandons the subset and degrades to
	// partial results (a *PartialError). 0 means the default of 2;
	// negative disables reassignment entirely.
	MaxReassign int
}

// Stats reports the cost profile of a run on the shared per-stage stats
// type, mirroring the quantities the paper compares: Wall is the
// wall-clock time, CPU the total busy time summed across nodes (the
// paper's "1089 CPU hours"), Bytes the peak per-node product-tree
// footprint (the paper's "70-100 GB per node"), ItemsIn the input
// modulus count and ItemsOut the number of vulnerable results.
type Stats struct {
	pipeline.Stats
	// Subsets is the effective subset count k (clamped to the number of
	// distinct input moduli).
	Subsets int
	// Reassigned counts subset re-runs after node deaths.
	Reassigned int
	// LostSubsets counts subsets abandoned after reassignment ran out;
	// non-zero only when Run also returns a *PartialError.
	LostSubsets int
}

// Run executes the partitioned batch GCD over moduli and returns the
// vulnerable results (same semantics as batchgcd.Factor: duplicates are
// deduplicated first, indices refer to the input slice) plus run stats.
// The context cancels in-flight work mid-computation: every node checks
// it per tree level, so cancellation returns within one level's work
// with an error wrapping the context's.
//
// Node failures (injected via Options.Faults, or any worker returning
// faults.ErrNodeCrash) are handled by a supervisor: the dead node's
// subset is reassigned to a fresh worker, and only after MaxReassign
// consecutive deaths is the subset abandoned. If some subsets finish
// and others are abandoned, Run returns the surviving results together
// with a *PartialError summarising what was lost, so an hours-long
// cluster job degrades instead of evaporating.
func Run(ctx context.Context, moduli []*big.Int, opts Options) ([]batchgcd.Result, Stats, error) {
	start := time.Now()
	var stats Stats
	if len(moduli) == 0 {
		return nil, stats, batchgcd.ErrNoInput
	}
	k := opts.Subsets
	if k < 1 {
		return nil, stats, errors.New("distgcd: Subsets must be >= 1")
	}
	distinct, backrefs := batchgcd.Dedup(moduli)
	if k > len(distinct) {
		k = len(distinct)
	}
	stats.Subsets = k
	stats.ItemsIn = int64(len(moduli))
	if opts.MaxReassign == 0 {
		opts.MaxReassign = 2
	} else if opts.MaxReassign < 0 {
		opts.MaxReassign = 0
	}
	opts.Metrics.Gauge("distgcd_moduli").Set(float64(len(moduli)))
	opts.Metrics.Gauge("distgcd_subsets").Set(float64(k))
	ins := newGCDInstruments(opts.Metrics, opts.Events)

	// Assign distinct moduli round-robin to k nodes. Round-robin keeps
	// subset sizes balanced regardless of input ordering; k <= distinct
	// count, so no subset is empty.
	nodes := make([]*node, k)
	for id := range nodes {
		nodes[id] = &node{id: id, faults: opts.Faults, metrics: opts.Metrics}
	}
	for i, m := range distinct {
		n := nodes[i%k]
		n.moduli = append(n.moduli, m)
		n.origin = append(n.origin, i)
	}

	// Phase 1 (supervised): every node builds its subset product tree.
	// A speculative build duplicate starts from scratch — the straggler
	// holds no state worth sharing.
	buildWork := func(ctx context.Context, n *node) error { return n.buildTree(ctx) }
	built, lostBuild := runPhase(ctx, nodes, faults.PhaseBuild, buildWork,
		func(n *node) *node { return n.replacement() }, opts, ins)
	if err := ctx.Err(); err != nil {
		return nil, stats, fmt.Errorf("distgcd: cancelled: %w", err)
	}
	if len(built) == 0 {
		return nil, stats, fmt.Errorf("distgcd: every subset lost in build phase: %w", lostBuild[0].Err)
	}

	// Exchange: gather the surviving subset products (the cluster
	// all-to-all). A subset lost in build simply isn't part of the
	// exchange — the survivors' pairwise GCDs are still exact.
	products := make([]*big.Int, len(built))
	for i, n := range built {
		products[i] = n.batch.Product()
	}

	// Phase 2 (supervised): every node pairs every product with its own
	// subset. A replacement for a node that died mid-reduce lost its
	// tree with the machine and rebuilds it first; a speculative
	// duplicate of a live straggler shares the original's tree, which is
	// read-only during remainder computation.
	reduceWork := func(ctx context.Context, n *node) error {
		if n.batch == nil {
			if err := n.buildTree(ctx); err != nil {
				return err
			}
		}
		return n.reduceAll(ctx, products)
	}
	reduceSpec := func(n *node) *node {
		dup := n.replacement()
		dup.batch, dup.treeBytes = n.batch, n.treeBytes
		return dup
	}
	finished, lostReduce := runPhase(ctx, built, faults.PhaseReduce, reduceWork, reduceSpec, opts, ins)
	if err := ctx.Err(); err != nil {
		return nil, stats, fmt.Errorf("distgcd: cancelled: %w", err)
	}
	if len(finished) == 0 {
		return nil, stats, fmt.Errorf("distgcd: every subset lost in reduce phase: %w", lostReduce[0].Err)
	}

	// Collect results and stats from the subsets that made it.
	var results []batchgcd.Result
	for _, n := range finished {
		stats.CPU += n.busy
		if b := n.treeBytes; b > stats.Bytes {
			stats.Bytes = b
		}
		for j, d := range n.divisors {
			if d == nil {
				continue
			}
			for _, orig := range backrefs[n.origin[j]] {
				results = append(results, batchgcd.Result{Index: orig, Divisor: d})
			}
		}
	}
	// Supervision can reorder completion; keep the output canonical so
	// same-seed chaos runs are byte-for-byte identical to clean runs.
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })

	stats.Wall = time.Since(start)
	stats.ItemsOut = int64(len(results))
	stats.Reassigned = int(ins.reassignN.Load())
	stats.LostSubsets = len(lostBuild) + len(lostReduce)
	opts.Metrics.Gauge("distgcd_results").Set(float64(len(results)))
	opts.Metrics.Gauge("distgcd_total_cpu_seconds").Set(stats.CPU.Seconds())
	opts.Metrics.Gauge("distgcd_peak_node_tree_bytes").Set(float64(stats.Bytes))
	kernel.FromContext(ctx).Publish(opts.Metrics)
	if stats.LostSubsets > 0 {
		return results, stats, &PartialError{Failures: append(lostBuild, lostReduce...)}
	}
	return results, stats, nil
}

// node is one simulated cluster node.
type node struct {
	id      int
	moduli  []*big.Int
	origin  []int // index into the run's distinct moduli
	faults  *faults.NodePlan
	metrics *telemetry.Registry

	batch     *batchgcd.Batch
	treeBytes int64
	busy      time.Duration
	divisors  []*big.Int
}

// replacement is a fresh worker for the same subset — the supervisor's
// reassignment target after this node dies, or a speculative duplicate.
// It shares the immutable subset (moduli, origins) but none of the
// dead node's state.
func (n *node) replacement() *node {
	return &node{id: n.id, moduli: n.moduli, origin: n.origin, faults: n.faults, metrics: n.metrics}
}

// inject applies any scheduled fault for this node's phase: a straggle
// stalls the worker (long enough to trip the supervisor's speculation
// window), a crash kills it with faults.ErrNodeCrash. Both are one-shot
// in the plan, so the re-execution of this subset runs clean.
func (n *node) inject(ctx context.Context, phase faults.Phase) error {
	if d := n.faults.StraggleFor(n.id, phase); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if n.faults.CrashFires(n.id, phase) {
		return fmt.Errorf("distgcd: node %d (%s): %w", n.id, phase, faults.ErrNodeCrash)
	}
	return nil
}

// publish mirrors the node's running cost counters into the registry,
// one trace-view-style track per node, so a live scrape mid-run shows
// which nodes are done with which phase.
func (n *node) publish() {
	label := fmt.Sprintf(`{node="%d"}`, n.id)
	n.metrics.Gauge("distgcd_node_tree_bytes" + label).Set(float64(n.treeBytes))
	n.metrics.Gauge("distgcd_node_busy_seconds" + label).Set(n.busy.Seconds())
	n.metrics.Gauge("distgcd_node_moduli" + label).Set(float64(len(n.moduli)))
}

func (n *node) buildTree(ctx context.Context) error {
	sp := telemetry.SpanFrom(ctx).ChildTrack(fmt.Sprintf("node%d.build", n.id), n.id+1)
	defer sp.End()
	if err := n.inject(ctx, faults.PhaseBuild); err != nil {
		return err
	}
	t0 := time.Now()
	batch, err := batchgcd.NewBatch(ctx, n.moduli)
	if err != nil {
		return err
	}
	n.batch = batch
	n.treeBytes = batch.Bytes()
	n.busy += time.Since(t0)
	sp.SetArg("tree_bytes", n.treeBytes)
	sp.SetArg("moduli", len(n.moduli))
	n.publish()
	return nil
}

// reduceAll combines the evidence from every subset product into the
// divisors the single-tree algorithm reports (see batchgcd.Batch): the
// node's own residues, every foreign product folded in place, one gcd.
func (n *node) reduceAll(ctx context.Context, products []*big.Int) error {
	sp := telemetry.SpanFrom(ctx).ChildTrack(fmt.Sprintf("node%d.reduce", n.id), n.id+1)
	defer sp.End()
	if err := n.inject(ctx, faults.PhaseReduce); err != nil {
		return err
	}
	t0 := time.Now()
	defer func() { n.busy += time.Since(t0); n.publish() }()

	// Find this node's own product in the exchange by value: a
	// reassigned worker rebuilt its tree, so its root is a different
	// *big.Int from the one exchanged, with the same value.
	self := -1
	for i, p := range products {
		if p.Cmp(n.batch.Product()) == 0 {
			self = i
			break
		}
	}
	if self < 0 {
		return errors.New("distgcd: node product missing from exchange")
	}

	// k concurrent nodes queue these passes on one GOMAXPROCS-wide
	// kernel pool instead of spawning k goroutine sets of their own.
	acc, err := n.batch.OwnResidues(ctx)
	if err != nil {
		return err
	}
	for j, p := range products {
		if j == self {
			continue
		}
		rems, err := n.batch.Residues(ctx, p)
		if err != nil {
			return err
		}
		if err := n.batch.Fold(ctx, acc, rems); err != nil {
			return err
		}
	}
	n.divisors, err = n.batch.Divisors(ctx, acc)
	return err
}
