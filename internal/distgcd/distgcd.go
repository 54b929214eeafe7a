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
// tree; the exchange is a shared slice of the k subset products, read by
// every node once all trees are built, standing in for the cluster
// interconnect. Each node folds the others' products into its own tree
// at the root and descends it once. The arithmetic is identical to the
// real system.
package distgcd

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"time"

	"github.com/factorable/weakkeys/internal/batchgcd"
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
	// and CPU ledger the paper reports per cluster machine.
	Metrics *telemetry.Registry
}

// Stats reports the cost profile of a run on the shared per-stage stats
// type, mirroring the quantities the paper compares: Wall is the
// wall-clock time, CPU the total busy time summed across nodes (the
// paper's "1089 CPU hours"), Bytes the peak per-node product-tree
// footprint (the paper's "70-100 GB per node"), ItemsIn the input
// modulus count and ItemsOut the number of vulnerable results. Bytes is
// prodtree.Tree.Bytes of the largest node's tree: the words of every
// node value, leaves included, and of the cofactor sum the tree carries,
// and nothing else — not the residues, the build's lower derivatives,
// scratch, or a pass's transform tables and reciprocal, which live only
// while that pass runs.
type Stats struct {
	pipeline.Stats
	// Subsets is the effective subset count k (clamped to the number of
	// distinct input moduli).
	Subsets int
}

// Run executes the partitioned batch GCD over moduli and returns the
// vulnerable results (same semantics as batchgcd.Factor: duplicates are
// deduplicated first, indices refer to the input slice) plus run stats.
// The context cancels in-flight work mid-computation: every node checks
// it per tree level, so cancellation returns within one level's work
// with an error wrapping the context's. The first node to fail cancels
// the others and fails the run: Run returns every result or none.
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
	opts.Metrics.Gauge("distgcd_moduli").Set(float64(len(moduli)))
	opts.Metrics.Gauge("distgcd_subsets").Set(float64(k))

	// Assign distinct moduli round-robin to k nodes. Round-robin keeps
	// subset sizes balanced regardless of input ordering; k <= distinct
	// count, so no subset is empty.
	nodes := make([]*node, k)
	for id := range nodes {
		nodes[id] = &node{id: id, metrics: opts.Metrics}
	}
	for i, m := range distinct {
		n := nodes[i%k]
		n.moduli = append(n.moduli, m)
		n.origin = append(n.origin, i)
	}

	// Phase 1: every node builds its subset product tree.
	err := eachNode(ctx, "build", nodes, func(ctx context.Context, n *node) error { return n.buildTree(ctx) })
	if err != nil {
		return nil, stats, err
	}
	// Exchange: gather every subset product (the cluster all-to-all);
	// products[i] is node i's own.
	products := make([]*big.Int, k)
	for i, n := range nodes {
		products[i] = n.batch.Product()
	}
	// Phase 2: every node pairs every product with its own subset.
	err = eachNode(ctx, "reduce", nodes, func(ctx context.Context, n *node) error { return n.reduceAll(ctx, products) })
	if err != nil {
		return nil, stats, err
	}

	var results []batchgcd.Result
	for _, n := range nodes {
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
	// Round-robin placement interleaves the nodes' indices; report in
	// input order, as the single-tree algorithm does.
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })

	stats.Wall = time.Since(start)
	stats.ItemsOut = int64(len(results))
	opts.Metrics.Gauge("distgcd_results").Set(float64(len(results)))
	opts.Metrics.Gauge("distgcd_total_cpu_seconds").Set(stats.CPU.Seconds())
	opts.Metrics.Gauge("distgcd_peak_node_tree_bytes").Set(float64(stats.Bytes))
	kernel.FromContext(ctx).Publish(opts.Metrics)
	return results, stats, nil
}

// eachNode runs one phase of work on every node concurrently and waits
// for all of them. The first node error cancels the rest of the phase
// and is returned, as is the parent context's cancellation.
func eachNode(ctx context.Context, phase string, nodes []*node, work func(context.Context, *node) error) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			if err := work(ctx, n); err != nil {
				cancel(fmt.Errorf("node %d: %w", n.id, err))
			}
		}(n)
	}
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return fmt.Errorf("distgcd: %s: %w", phase, err)
	}
	return nil
}

// node is one simulated cluster node.
type node struct {
	id      int
	moduli  []*big.Int
	origin  []int // index into the run's distinct moduli
	metrics *telemetry.Registry

	batch     *batchgcd.Batch
	treeBytes int64
	busy      time.Duration
	divisors  []*big.Int
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
// divisors the single-tree algorithm reports (see batchgcd.Batch): one
// descent of the node's tree with every foreign product folded in at its
// root, then one gcd per modulus.
func (n *node) reduceAll(ctx context.Context, products []*big.Int) error {
	sp := telemetry.SpanFrom(ctx).ChildTrack(fmt.Sprintf("node%d.reduce", n.id), n.id+1)
	defer sp.End()
	t0 := time.Now()
	defer func() { n.busy += time.Since(t0); n.publish() }()

	foreign := append(append([]*big.Int(nil), products[:n.id]...), products[n.id+1:]...)
	// k concurrent nodes queue these passes on one GOMAXPROCS-wide
	// kernel pool instead of spawning k goroutine sets of their own.
	acc, err := n.batch.OwnResidues(ctx, foreign...)
	if err != nil {
		return err
	}
	n.divisors, err = n.batch.Divisors(ctx, acc)
	return err
}
