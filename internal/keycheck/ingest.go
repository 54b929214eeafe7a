package keycheck

import (
	"context"
	"fmt"
	"math/big"
	"slices"
	"time"

	"github.com/factorable/weakkeys/internal/anomaly"
	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/kernel"
	"github.com/factorable/weakkeys/internal/prodtree"
	"github.com/factorable/weakkeys/internal/scanstore"
)

// ShardIngest is the per-shard ledger of one Ingest: how many moduli and
// factored entries the shard gained, and how much of its product tree
// survived by reference (all of it: the product only grows by
// appending). A Reused == Total shard with Shared set rode along
// untouched — the whole shard object is the predecessor's.
type ShardIngest struct {
	Shard       int  `json:"shard"`
	NewModuli   int  `json:"new_moduli"`
	NewFactored int  `json:"new_factored"`
	NewShared   int  `json:"new_shared,omitempty"`
	NodesReused int  `json:"nodes_reused"`
	NodesTotal  int  `json:"nodes_total"`
	Shared      bool `json:"shared"`
}

// IngestReport summarizes one incremental ingest.
type IngestReport struct {
	// DeltaModuli is the count of distinct delta moduli not already in
	// the corpus; Duplicates is how many the corpus already indexed.
	DeltaModuli int `json:"delta_moduli"`
	Duplicates  int `json:"duplicates"`
	// NewFactored counts delta moduli that entered the index factored
	// (they share a prime inside the delta or with the old corpus).
	NewFactored int `json:"new_factored"`
	// Refactored counts pre-existing corpus members that were clean
	// before and became factored because a delta modulus shares one of
	// their primes — the "When RSA Fails" fold-back.
	Refactored int `json:"refactored"`
	// Skipped counts delta moduli homed in shards this snapshot does
	// not own (cluster replicas only): they are someone else's to
	// index, and the sync protocol delivers them there. They still ride
	// the GCD sweep against the owned shards, so an owned member
	// sharing a prime with one is re-labeled factored here (counted in
	// Refactored) even though the mate itself lands elsewhere.
	Skipped int `json:"skipped,omitempty"`
	// NovelKeys carries the hex encodings of the novel moduli that
	// entered the index — the feed a cluster replica appends to its
	// sync journal so peers can pull the delta. Excluded from the JSON
	// report; it is operational plumbing, not a statistic.
	NovelKeys []string `json:"-"`
	// TouchedShards is how many shards were replaced; the remaining
	// shards of the new snapshot are the predecessor's, by reference.
	TouchedShards int `json:"touched_shards"`
	// NodesReused / NodesBuilt partition the new snapshot's product-tree
	// nodes into ones shared with the predecessor and ones multiplied
	// fresh — the structural-sharing ratio the per-shard telemetry
	// gauges expose.
	NodesReused int           `json:"nodes_reused"`
	NodesBuilt  int           `json:"nodes_built"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	// Steps is where Elapsed went, wall time per step: partitioning the
	// delta, the sweep proper (delta batch, its own residues and those of
	// every shard product), finding the members the divisors belong to
	// (shards search side by side inside the sweep's fan-out; this is the
	// longest of them, and Sweep is the fan-out's remainder), resolving
	// divisors into factorizations, and the merge. A step that did not run
	// reads zero.
	Steps struct {
		Partition time.Duration `json:"partition_ns"`
		Sweep     time.Duration `json:"sweep_ns"`
		Mates     time.Duration `json:"mates_ns"`
		Resolve   time.Duration `json:"resolve_ns"`
		Merge     time.Duration `json:"merge_ns"`
	} `json:"steps"`
	Shards []ShardIngest `json:"shards"`
}

// shardDelta accumulates what one shard gains from an ingest.
type shardDelta struct {
	newKeys    []string
	newMods    []*big.Int
	newEntries map[string]Entry
	// newShared maps delta moduli (novel or already-member) the delta
	// store observed under two or more identities to their count.
	newShared map[string]int
}

func (d *shardDelta) entry(key string, e Entry) {
	if d.newEntries == nil {
		d.newEntries = make(map[string]Entry)
	}
	d.newEntries[key] = e
}

func (d *shardDelta) empty() bool {
	return len(d.newMods) == 0 && len(d.newEntries) == 0 && len(d.newShared) == 0
}

// ingestDelta is a delta corpus partitioned against a snapshot.
type ingestDelta struct {
	shards []*shardDelta // what each owned shard gains
	novel  []*big.Int    // owned moduli the corpus has not indexed yet
	keys   []string      // their map keys, index-aligned with novel
	// foreign holds moduli homed in unowned shards: not ours to index,
	// but they ride the GCD sweep so owned members sharing one of their
	// primes get re-labeled.
	foreign []*big.Int
}

// changed reports whether any shard gains anything. A sweep of only
// foreign moduli that re-labeled nothing leaves it false: publishing a
// structurally identical successor would retire every cached verdict
// for no reason.
func (d *ingestDelta) changed() bool {
	for _, sd := range d.shards {
		if !sd.empty() {
			return true
		}
	}
	return false
}

// swept is every delta modulus taking part in the GCD passes: the owned
// novel ones first (sweep indices line up with novel), then the foreign
// ones, which contribute divisors and mate re-labels but no entries.
func (d *ingestDelta) swept() []*big.Int {
	if len(d.foreign) == 0 {
		return d.novel
	}
	return append(append(make([]*big.Int, 0, len(d.novel)+len(d.foreign)), d.novel...), d.foreign...)
}

// Ingest folds a delta corpus into the snapshot and returns the merged
// successor without rebuilding the untouched parts. The paper's monthly
// re-run of the full batch GCD becomes, online, four steps: partition
// the delta against the index, sweep it (one batchgcd.Batch over the
// delta, taken against itself and against every standing shard
// product), resolve the divisors into factorizations, and merge — the
// new leaves appended to each touched shard's product (prodtree.Forest)
// and its member set's overlay, while untouched shards are shared by
// reference.
//
// Both prime-sharing directions are handled: a delta modulus sharing a
// prime with the old corpus is factored on the spot, and the old member
// it shares with — clean until now — is re-labeled factored too, so the
// member-implies-factored-or-clean invariant of Check survives.
//
// On a cluster replica (a snapshot with owned shards) delta moduli
// homed in unowned shards are not indexed — their home owner does that —
// but they still participate in every GCD pass. That lets a replica
// learn that one of its own members shares a prime with a key homed on
// a disjoint owner set when the sync feed delivers that key. The
// re-label only fires for mates already indexed when the foreign key
// arrives, so it is convergence hygiene, not the correctness guarantee
// — the router's full scatter at check time is what consults every
// live owner.
//
// in.Store carries the delta observations (required); in.Fingerprint,
// when set, contributes known factorizations and vendor labels for
// delta moduli. in.Shards must be zero or match the snapshot. The
// receiver is never modified and stays fully usable.
func (s *Snapshot) Ingest(ctx context.Context, in BuildInput) (*Snapshot, IngestReport, error) {
	start := time.Now()
	var rep IngestReport
	if in.Store == nil {
		return nil, rep, fmt.Errorf("keycheck: ingest: nil store")
	}
	if in.Shards != 0 && in.Shards != len(s.shards) {
		return nil, rep, fmt.Errorf("keycheck: ingest: shard count %d does not match snapshot's %d (re-sharding needs a full rebuild)",
			in.Shards, len(s.shards))
	}
	mark := start
	lap := func() time.Duration { // wall time since the previous step ended
		prev := mark
		mark = time.Now()
		return mark.Sub(prev)
	}
	d := s.partition(in.Store, &rep)
	rep.Steps.Partition = lap()
	// A shared-identity-only delta carries no modulus the corpus hasn't
	// already swept and goes straight to the merge.
	if moduli := d.swept(); len(moduli) > 0 {
		sw, err := s.sweep(ctx, moduli)
		if err != nil {
			return nil, rep, err
		}
		rep.Steps.Mates = sw.matesElapsed
		rep.Steps.Sweep = lap() - sw.matesElapsed
		s.resolve(in, d, sw, &rep)
		rep.Steps.Resolve = lap()
	}
	ns := s // nothing new: the snapshot is already the merge
	if d.changed() {
		var err error
		if ns, err = s.merge(ctx, d, &rep); err != nil {
			return nil, rep, err
		}
		rep.Steps.Merge = lap()
	}
	rep.Elapsed = time.Since(start)
	return ns, rep, nil
}

// partition sorts the delta's distinct moduli into novel (per home
// shard), duplicate, foreign and newly-shared, filling the report's
// DeltaModuli, Duplicates, Skipped and NovelKeys.
func (s *Snapshot) partition(store *scanstore.Store, rep *IngestReport) *ingestDelta {
	nShards := len(s.shards)
	moduli, keys := store.DistinctModuli()
	d := &ingestDelta{shards: make([]*shardDelta, nShards)}
	for i := range d.shards {
		d.shards[i] = &shardDelta{}
	}
	// Delta-internal shared-modulus graph: a delta that shows one modulus
	// under distinct identities marks it shared, whether the modulus is
	// novel or already a member. Counts only ever grow (max-merge in
	// mergeShard): per-store counts cannot be summed without the
	// identity sets.
	identities := anomaly.IdentityCounts(store)
	for i, key := range keys {
		si := shardOf(key, nShards)
		if !s.owns(si) {
			rep.Skipped++
			d.foreign = append(d.foreign, moduli[i])
			continue
		}
		sd := d.shards[si]
		if cnt, ok := identities[key]; ok && cnt > s.shards[si].shared[key] {
			// Factored members stay out of the shared map (the verdict
			// outranks the identity graph), so a count bump on one is
			// not a delta.
			if _, done := s.shards[si].factored[key]; !done {
				if sd.newShared == nil {
					sd.newShared = make(map[string]int)
				}
				sd.newShared[key] = cnt
			}
		}
		if s.shards[si].members.has(key) {
			rep.Duplicates++
			continue
		}
		d.novel = append(d.novel, moduli[i])
		d.keys = append(d.keys, key)
		sd.newKeys = append(sd.newKeys, key)
		sd.newMods = append(sd.newMods, moduli[i])
	}
	rep.DeltaModuli = len(d.novel)
	rep.NovelKeys = make([]string, len(d.novel))
	for j, n := range d.novel {
		rep.NovelKeys[j] = hexOf(n)
	}
	return d
}

// mate is an existing member found to share a prime with a delta
// modulus during an ingest sweep.
type mate struct {
	key     string
	mod     *big.Int
	divisor *big.Int
}

// sweepResult is what the GCD passes found, as divisors index-aligned
// with the swept moduli (nil where trivial). Per-shard divisors are kept
// apart: the mate scan needs to know which shard yielded which.
type sweepResult struct {
	own     []*big.Int   // shared with another delta modulus
	byShard [][]*big.Int // shared with that shard's members; nil for an empty shard
	mates   [][]mate     // per shard: the old members being shared with
	// matesElapsed is the longest any shard's mate search took (shards
	// run side by side), which the report keeps apart from the GCD passes.
	matesElapsed time.Duration
}

// sweep builds one Batch over the delta moduli and takes it against
// itself — primes shared among the new moduli (a fresh batch of devices
// from the same flawed firmware) never touch the old products — and
// against every standing shard product: gcd(N, P mod N) exposes the
// primes N shares with the shard. Shards fan out on the shared kernel
// pool, like Build, and one that yielded divisors goes straight on to
// find the members they belong to (findMates).
func (s *Snapshot) sweep(ctx context.Context, moduli []*big.Int) (*sweepResult, error) {
	b, err := batchgcd.NewBatch(ctx, moduli)
	if err == nil && b.Len() != len(moduli) {
		err = fmt.Errorf("%d of %d delta moduli are distinct", b.Len(), len(moduli))
	}
	if err != nil {
		return nil, fmt.Errorf("keycheck: ingest: delta batch: %w", err)
	}
	sw := &sweepResult{byShard: make([][]*big.Int, len(s.shards)), mates: make([][]mate, len(s.shards))}
	own, err := b.OwnResidues(ctx)
	if err == nil {
		sw.own, err = b.Divisors(ctx, own)
	}
	if err != nil {
		return nil, fmt.Errorf("keycheck: ingest: delta batch GCD: %w", err)
	}
	var treed []int // shards that actually hold a product
	for si, sh := range s.shards {
		if sh.forest != nil {
			treed = append(treed, si)
		}
	}
	errs := make([]error, len(s.shards))
	matesTook := make([]time.Duration, len(s.shards))
	runErr := kernel.FromContext(ctx).Run(ctx, len(treed), func(k int, a *kernel.Arena) {
		si := treed[k]
		sh := s.shards[si]
		rems, err := b.Residues(ctx, sh.product())
		if err == nil {
			sw.byShard[si], err = b.Divisors(ctx, rems)
		}
		if err != nil {
			errs[si] = fmt.Errorf("keycheck: ingest shard %d: %w", si, err)
			return
		}
		start := time.Now()
		sw.mates[si] = findMates(sh.forest, sw.byShard[si], a.Get())
		matesTook[si] = time.Since(start)
	})
	if runErr != nil {
		return nil, fmt.Errorf("keycheck: ingest cancelled: %w", runErr)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sw.matesElapsed = slices.Max(matesTook)
	return sw, nil
}

// findMates returns the members of a shard sharing a prime with one of
// the divisors the shard yielded, in leaf order. The candidates come
// from one pruned descent of the shard's own product against the
// product of the distinct divisors — a shard that yielded none pays
// nothing, one that did pays a few short reductions per mate instead of
// a GCD per leaf per divisor — and only they are GCD'd against each
// divisor for the prime itself; g is scratch.
func findMates(forest *prodtree.Forest, divs []*big.Int, g *big.Int) []mate {
	var hits []*big.Int // distinct, in order of first appearance
	seen := make(map[string]bool)
	for _, d := range divs {
		if d == nil {
			continue
		}
		if key := string(d.Bytes()); !seen[key] {
			seen[key] = true
			hits = append(hits, d)
		}
	}
	if len(hits) == 0 {
		return nil
	}
	all := new(big.Int).Set(one)
	for _, d := range hits {
		all.Mul(all, d)
	}
	leaves := forest.Leaves()
	var mates []mate
	for _, i := range forest.LeavesSharing(all) {
		leaf := leaves[i]
		for _, d := range hits {
			g.GCD(nil, nil, leaf, d)
			if g.Cmp(one) > 0 && g.Cmp(leaf) < 0 {
				mates = append(mates, mate{key: string(leaf.Bytes()), mod: leaf, divisor: new(big.Int).Set(g)})
				break
			}
		}
	}
	return mates
}

// primePool accumulates every prime recovered during one ingest, to
// split the degenerate divisor == N cases.
type primePool []*big.Int

// split factors n by the proper divisor d and remembers both primes.
func (pool *primePool) split(n, d *big.Int) (Entry, bool) {
	p, q, err := batchgcd.SplitModulus(n, d)
	if err != nil {
		return Entry{}, false
	}
	*pool = append(*pool, p, q)
	return Entry{P: p, Q: q}, true
}

// divisorOf returns a proper divisor of n among the pooled primes.
func (pool primePool) divisorOf(n *big.Int) *big.Int {
	g := new(big.Int)
	for _, p := range pool {
		g.GCD(nil, nil, n, p)
		if g.Cmp(one) > 0 && g.Cmp(n) < 0 {
			return g
		}
	}
	return nil
}

// resolve turns the sweep's divisors into factored entries on the shard
// deltas, counting Refactored and NewFactored, and labels them.
func (s *Snapshot) resolve(in BuildInput, d *ingestDelta, sw *sweepResult, rep *IngestReport) {
	var pool primePool
	// Old members being shared with become factored: their mate divisor
	// is always proper (a delta modulus equal to a member would have
	// been a duplicate). One factored already has nothing to gain.
	for si, mates := range sw.mates {
		for _, m := range mates {
			if _, done := s.shards[si].factored[m.key]; done {
				continue
			}
			if e, ok := pool.split(m.mod, m.divisor); ok {
				d.shards[si].entry(m.key, e)
				rep.Refactored++
			}
		}
	}

	// Novel moduli with at least one divisor become factored. Known
	// factorizations from the delta's own fingerprint run are taken
	// as-is; otherwise the first proper divisor splits the modulus, and
	// degenerate cases (every divisor equals N: both primes shared)
	// wait for the pool to fill.
	var known map[string]fingerprint.Factors
	if in.Fingerprint != nil {
		known = in.Fingerprint.Factors
	}
	resolved := make([]*Entry, len(d.novel))
	var degenerate []int
	passes := append(append([][]*big.Int(nil), sw.byShard...), sw.own)
	for j, n := range d.novel {
		if f, ok := known[d.keys[j]]; ok {
			pool = append(pool, f.P, f.Q)
			resolved[j] = &Entry{P: f.P, Q: f.Q}
			continue
		}
		var proper *big.Int
		hit := false
		for _, divs := range passes {
			if divs == nil || divs[j] == nil {
				continue
			}
			hit = true
			if divs[j].Cmp(n) < 0 {
				proper = divs[j]
				break
			}
		}
		if !hit {
			continue // clean member
		}
		if proper != nil {
			if e, ok := pool.split(n, proper); ok {
				resolved[j] = &e
				continue
			}
		}
		degenerate = append(degenerate, j)
	}
	s.resolveDegenerate(d.novel, sw.byShard, degenerate, resolved, &pool)
	for j, e := range resolved {
		if e == nil {
			continue
		}
		d.shards[shardOf(d.keys[j], len(s.shards))].entry(d.keys[j], *e)
		rep.NewFactored++
	}
	for _, sd := range d.shards {
		labelEntries(in.Store, in.Fingerprint, sd.newEntries)
	}
}

// resolveDegenerate splits the novel moduli every divisor of which
// equalled N: each prime of N is shared, none alone. A pairwise GCD over
// that small set goes first: in a clique (every modulus shares both
// primes) each pair shares exactly one prime, so the pairwise divisors
// are proper. The primes of the moduli split so far cover what N shares
// with the rest of the delta. Neither covers a modulus whose primes both
// sit in members of one shard — the mates' recorded divisors need not be
// N's primes, and a factored mate is not split again — so a shard whose
// divisor was N itself is asked directly: a pruned descent of its tree
// for a leaf sharing with N. A modulus none of them splits — on a
// replica, one sharing only with delta keys homed elsewhere, which are
// swept but never split here — stays a plain member.
func (s *Snapshot) resolveDegenerate(novel []*big.Int, byShard [][]*big.Int, degenerate []int, resolved []*Entry, pool *primePool) {
	if len(degenerate) == 0 {
		return
	}
	sub := make([]*big.Int, len(degenerate))
	for i, j := range degenerate {
		sub[i] = novel[j]
	}
	pairDiv := make([]*big.Int, len(sub))
	if res, err := batchgcd.FactorPairwise(sub); err == nil {
		for _, r := range res {
			pairDiv[r.Index] = r.Divisor
		}
	}
	for i, j := range degenerate {
		n := novel[j]
		div := pairDiv[i]
		if div == nil || div.Cmp(n) >= 0 {
			div = pool.divisorOf(n)
		}
		if div == nil {
			var whole []*prodtree.Forest // shards whose product n divides
			for si, divs := range byShard {
				if divs != nil && divs[j] != nil {
					whole = append(whole, s.shards[si].forest)
				}
			}
			div = divisorAmongLeaves(whole, n)
		}
		if div == nil {
			continue
		}
		if e, ok := pool.split(n, div); ok {
			resolved[j] = &e
		}
	}
}

// merge builds the successor snapshot: untouched shards are shared by
// reference, touched ones replaced by mergeShard — side by side on the
// shared kernel pool, like Build and sweep — and the per-shard ledger
// filled in, in shard order.
func (s *Snapshot) merge(ctx context.Context, d *ingestDelta, rep *IngestReport) (*Snapshot, error) {
	ns := &Snapshot{
		shards:   slices.Clone(s.shards),
		moduli:   s.moduli + len(d.novel),
		factored: s.factored,
		gen:      snapGen.Add(1),
		own:      s.own,
		probe:    s.probe,
	}
	var touched []int
	for si, sd := range d.shards {
		if !sd.empty() {
			touched = append(touched, si)
		}
	}
	errs := make([]error, len(s.shards))
	runErr := kernel.FromContext(ctx).Run(ctx, len(touched), func(k int, _ *kernel.Arena) {
		si := touched[k]
		ns.shards[si], errs[si] = mergeShard(ctx, s.shards[si], d.shards[si])
	})
	if runErr != nil {
		return nil, fmt.Errorf("keycheck: ingest merge cancelled: %w", runErr)
	}
	for si, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("keycheck: ingest shard %d: %w", si, err)
		}
	}
	rep.Shards = make([]ShardIngest, len(s.shards))
	for si, old := range s.shards {
		nsh, sd, sr := ns.shards[si], d.shards[si], &rep.Shards[si]
		sr.Shard = si
		sr.NodesTotal = nsh.forest.Nodes()
		// The product only grows by appending: every node of the old one
		// is the new one's by pointer.
		sr.NodesReused = old.forest.Nodes()
		rep.NodesReused += sr.NodesReused
		rep.NodesBuilt += sr.NodesTotal - sr.NodesReused
		ns.shared += len(nsh.shared)
		if nsh == old {
			sr.Shared = true
			continue
		}
		ns.factored += len(nsh.factored) - len(old.factored)
		rep.TouchedShards++
		sr.NewModuli = len(sd.newMods)
		sr.NewFactored = len(sd.newEntries)
		sr.NewShared = len(sd.newShared)
	}
	return ns, nil
}

// mergeShard returns old plus what sd adds, copy-on-write: a fresh
// factored map, the new leaves appended to the product and the new keys
// to the member set; whatever the delta leaves alone stays shared with
// old.
func mergeShard(ctx context.Context, old *shard, sd *shardDelta) (*shard, error) {
	nsh := &shard{members: old.members, forest: old.forest, shared: old.shared}
	nsh.factored = make(map[string]Entry, len(old.factored)+len(sd.newEntries))
	for key, e := range old.factored {
		nsh.factored[key] = e
	}
	for key, e := range sd.newEntries {
		nsh.factored[key] = e
	}
	// The shared map tracks only unfactored members: anything this
	// ingest factored leaves it, and shared delta keys that arrived
	// already factored never enter.
	droppedShared := false
	for key := range sd.newEntries {
		if _, ok := old.shared[key]; ok {
			droppedShared = true
			break
		}
	}
	if len(sd.newShared) > 0 || droppedShared {
		nsh.shared = make(map[string]int, len(old.shared)+len(sd.newShared))
		for key, cnt := range old.shared {
			nsh.shared[key] = cnt
		}
		for key, cnt := range sd.newShared {
			if cnt > nsh.shared[key] {
				nsh.shared[key] = cnt
			}
		}
		for key := range nsh.shared {
			if _, factored := nsh.factored[key]; factored {
				delete(nsh.shared, key)
			}
		}
	}
	// Only with new members do the membership structures change; a
	// shard that merely had members re-labeled keeps sharing them.
	if len(sd.newMods) > 0 {
		forest, err := old.forest.Append(ctx, sd.newMods)
		if err != nil {
			return nil, err
		}
		nsh.forest = forest
		nsh.members = old.members.with(sd.newKeys)
	}
	// A member promoted to factored or shared must leave the
	// clean-exemplar sample; novel clean keys top it back up.
	keep := func(key string) {
		_, f := nsh.factored[key]
		_, sh := nsh.shared[key]
		if !f && !sh && len(nsh.cleanSample) < exemplarSample {
			nsh.cleanSample = append(nsh.cleanSample, key)
		}
	}
	for _, key := range old.cleanSample {
		keep(key)
	}
	for _, key := range sd.newKeys {
		keep(key)
	}
	return nsh, nil
}
