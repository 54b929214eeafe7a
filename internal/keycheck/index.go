package keycheck

import (
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"math/big"
	"sort"
	"sync/atomic"

	"github.com/factorable/weakkeys/internal/anomaly"
	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/kernel"
	"github.com/factorable/weakkeys/internal/prodtree"
	"github.com/factorable/weakkeys/internal/scanstore"
)

// Entry is the exact-map record for one factored corpus modulus.
type Entry struct {
	// P, Q is the recovered factorization, P <= Q.
	P, Q *big.Int
	// Vendor and Attribution are the fingerprint label of a corpus
	// certificate serving this modulus ("" when unlabeled or bare-key).
	Vendor      string
	Attribution string
}

// shard holds one hash partition of the corpus: the exact set of every
// modulus observed in the partition, the map of the factored ones among
// them, and the partition's product for the GCD path. All fields are
// immutable after Build/Ingest; Ingest replaces touched shards wholesale
// and shares untouched ones by reference.
type shard struct {
	// members is the one membership answer: Check, Ingest's duplicate
	// test and the shard's modulus count all read it. A key enters only
	// through Build (settled by the study's factor table) or Ingest
	// (swept against every shard this snapshot indexes), which is why a
	// member is answered from the maps alone.
	members  memberSet
	factored map[string]Entry
	// forest is the shard's modulus product, kept whole (not just the
	// root) so that Ingest appends to it, multiplying only the nodes the
	// new leaves complete, and finds mates by descending it.
	forest *prodtree.Forest
	// shared maps unfactored member moduli the corpus observed under two
	// or more distinct identities to their identity count — the
	// shared-modulus graph projected onto this shard, minus anything
	// batch GCD already broke (a factored verdict outranks the identity
	// graph). Shared members answer shared_modulus instead of clean.
	shared map[string]int
	// cleanSample holds a few non-factored, non-shared member keys for
	// Snapshot.Exemplars (smoke tests and load generators need known
	// clean corpus members without shipping the whole corpus).
	cleanSample []string
}

// product returns the shard's modulus product, or nil for an empty shard.
func (sh *shard) product() *big.Int { return sh.forest.Root() }

// memberSet is a shard's exact key set: a base map shared by every
// snapshot since the last fold, plus an overlay of the keys added since.
// An ingest copies the overlay, not the base, and folds both into a new
// base once the overlay would outgrow an eighth of it, so a key is copied
// a constant number of times on average. Neither map is written once
// published.
type memberSet struct {
	base, overlay map[string]struct{}
}

// overlayShare is how many times smaller than the base the overlay stays.
const overlayShare = 8

func (m memberSet) has(key string) bool {
	if _, ok := m.base[key]; ok {
		return true
	}
	_, ok := m.overlay[key]
	return ok
}

func (m memberSet) size() int { return len(m.base) + len(m.overlay) }

// with returns m plus keys, none of which m holds; m is not modified.
func (m memberSet) with(keys []string) memberSet {
	fold := (len(m.overlay)+len(keys))*overlayShare > len(m.base)
	var added map[string]struct{}
	if fold {
		added = make(map[string]struct{}, m.size()+len(keys))
		maps.Copy(added, m.base)
	} else {
		added = make(map[string]struct{}, len(m.overlay)+len(keys))
	}
	maps.Copy(added, m.overlay)
	for _, key := range keys {
		added[key] = struct{}{}
	}
	if fold {
		return memberSet{base: added}
	}
	return memberSet{base: m.base, overlay: added}
}

// exemplarSample bounds the per-shard clean-key sample.
const exemplarSample = 32

// Snapshot is an immutable, queryable index over one corpus. Snapshots
// are built once (Build) or derived from a predecessor (Ingest),
// published through an Index, and shared by any number of concurrent
// readers without locking.
type Snapshot struct {
	shards   []*shard
	moduli   int
	factored int
	// gen is a process-unique generation stamp. Verdict caches tag
	// entries with it so a verdict computed against one snapshot can
	// never be served as current after a swap to another.
	gen uint64
	// own, when non-nil, marks the shards this snapshot actually
	// indexes — the cluster-replica case, where each process owns a
	// placement-assigned subset and the unowned shards stay empty. A
	// nil own means the snapshot indexes every shard (the standalone
	// and router-less deployments).
	own []bool
	// shared counts the shared-modulus members across every shard.
	shared int
	// probe holds the bounded factoring probes Check runs against novel
	// moduli that the GCD path cannot break. The zero value selects the
	// default anomaly budgets; negative budgets disable a probe.
	probe anomaly.Probe
}

// owns reports whether the snapshot indexes shard si.
func (s *Snapshot) owns(si int) bool { return s.own == nil || (si < len(s.own) && s.own[si]) }

// Owned lists the shards this snapshot indexes; nil means all of them.
func (s *Snapshot) Owned() []int {
	if s.own == nil {
		return nil
	}
	var out []int
	for si, ok := range s.own {
		if ok {
			out = append(out, si)
		}
	}
	return out
}

// snapGen issues process-unique snapshot generations.
var snapGen atomic.Uint64

// Generation returns the snapshot's process-unique generation stamp.
func (s *Snapshot) Generation() uint64 { return s.gen }

// Empty returns a snapshot over no corpus at all: every check answers
// clean/novel. It is the seed of a pure-ingest pipeline — the
// longitudinal loop starts Empty and folds in one month at a time.
func Empty(shards int) *Snapshot {
	if shards <= 0 {
		shards = DefaultShards
	}
	snap := &Snapshot{shards: make([]*shard, shards), gen: snapGen.Add(1)}
	for i := range snap.shards {
		snap.shards[i] = &shard{factored: make(map[string]Entry)}
	}
	return snap
}

// DefaultShards is the Build default; the sweet spot at simulation scale
// between per-shard product size and fan-out cost.
const DefaultShards = 8

// BuildInput configures Build.
type BuildInput struct {
	// Store is the scan corpus (required).
	Store *scanstore.Store
	// Fingerprint supplies the factored set and vendor labels. Nil means
	// the caller has no factor table: every corpus modulus is indexed as
	// an already-swept member and answers clean (or shared_modulus),
	// whatever primes it shares — only novel submissions reach the GCD
	// path. Production (keyserverd, bench/) always passes one.
	Fingerprint *fingerprint.Result
	// Shards is the partition count (default DefaultShards).
	Shards int
	// OwnShards, when non-nil, restricts the build to the listed shard
	// indices — the cluster-replica form, where placement assigns each
	// process a subset of the hash space. Moduli homed in other shards
	// are dropped; checks against those shards come back Partial and
	// the router is expected to consult an owner instead.
	OwnShards []int
	// Probe sets the bounded factoring budgets Check applies to novel
	// moduli (zero value: the anomaly defaults; negative fields disable).
	Probe anomaly.Probe
}

// Build constructs a Snapshot from a completed study's corpus. The
// per-shard modulus products are built concurrently; ctx cancels
// mid-build (checked per product-tree level).
func Build(ctx context.Context, in BuildInput) (*Snapshot, error) {
	if in.Store == nil {
		return nil, fmt.Errorf("keycheck: build: nil store")
	}
	nShards := in.Shards
	if nShards <= 0 {
		nShards = DefaultShards
	}
	moduli, keys := in.Store.DistinctModuli()
	snap := &Snapshot{shards: make([]*shard, nShards), gen: snapGen.Add(1), probe: in.Probe}
	if in.OwnShards != nil {
		snap.own = make([]bool, nShards)
		for _, si := range in.OwnShards {
			if si < 0 || si >= nShards {
				return nil, fmt.Errorf("keycheck: build: owned shard %d out of range 0..%d", si, nShards-1)
			}
			snap.own[si] = true
		}
	}
	byShard := make([][]*big.Int, nShards)
	for i := range snap.shards {
		snap.shards[i] = &shard{members: memberSet{base: make(map[string]struct{})}, factored: make(map[string]Entry)}
	}
	var factors map[string]fingerprint.Factors
	if in.Fingerprint != nil {
		factors = in.Fingerprint.Factors
	}
	// One bulk pass over the store projects the shared-modulus graph
	// (same N under distinct identities) onto the shards.
	identities := anomaly.IdentityCounts(in.Store)
	for i, key := range keys {
		si := shardOf(key, nShards)
		if !snap.owns(si) {
			continue
		}
		sh := snap.shards[si]
		byShard[si] = append(byShard[si], moduli[i])
		sh.members.base[key] = struct{}{}
		snap.moduli++
		if f, ok := factors[key]; ok {
			// A factored member outranks its identity graph: the shared
			// map only tracks the unfactored shared moduli, the class
			// batch GCD cannot see.
			sh.factored[key] = Entry{P: f.P, Q: f.Q}
			snap.factored++
		} else if cnt, ok := identities[key]; ok {
			if sh.shared == nil {
				sh.shared = make(map[string]int)
			}
			sh.shared[key] = cnt
			snap.shared++
		} else if len(sh.cleanSample) < exemplarSample {
			sh.cleanSample = append(sh.cleanSample, key)
		}
	}
	for _, sh := range snap.shards {
		labelEntries(in.Store, in.Fingerprint, sh.factored)
	}
	// Products dominate build time; fan the shards out on the shared
	// kernel pool, mirroring the subset partitioning of the distributed
	// batch GCD. The nested product-tree builds schedule their levels on
	// the same pool, so total concurrency stays bounded by the pool
	// width instead of shards × GOMAXPROCS.
	eng := kernel.FromContext(ctx)
	errs := make([]error, nShards)
	runErr := eng.Run(ctx, nShards, func(si int, _ *kernel.Arena) {
		if len(byShard[si]) == 0 {
			return
		}
		forest, err := prodtree.NewForest(ctx, byShard[si])
		if err != nil {
			errs[si] = fmt.Errorf("keycheck: build shard %d: %w", si, err)
			return
		}
		snap.shards[si].forest = forest
	})
	if runErr != nil {
		return nil, fmt.Errorf("keycheck: build cancelled: %w", runErr)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// labelEntries attaches vendor labels to factored entries whose
// certificates fp labeled, so a verdict can name the implicated
// implementation — the paper's Section 3.3 attribution surfaced per key.
func labelEntries(store *scanstore.Store, fp *fingerprint.Result, entries map[string]Entry) {
	if fp == nil {
		return
	}
	for key, e := range entries {
		for _, c := range store.CertsWithModulus(key) {
			cfp, err := c.Fingerprint()
			if err != nil {
				continue
			}
			if lbl, ok := fp.Labels[cfp]; ok {
				e.Vendor, e.Attribution = lbl.Vendor, lbl.Method.String()
				entries[key] = e
				break
			}
		}
	}
}

// shardOf maps a modulus key to its home shard by FNV-1a hash.
func shardOf(key string, nShards int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(nShards))
}

// ShardOf maps a modulus to its home shard — the same FNV-1a placement
// Build and Check use, exported so the cluster router can route a
// submission to the replica owning its home shard without holding any
// index itself.
func ShardOf(n *big.Int, nShards int) int {
	if nShards <= 0 {
		nShards = DefaultShards
	}
	return shardOf(string(n.Bytes()), nShards)
}

var one = big.NewInt(1)

// Check answers for one modulus. A corpus member is answered from its
// home shard's maps alone, with no big.Int arithmetic: Build and Ingest
// already settled it against every shard this snapshot indexes, so it is
// factored, shared_modulus or clean. Everything else is novel and falls
// through to GCD against every shard's product, so a key no scan ever
// observed is still caught when it shares a prime with the corpus.
func (s *Snapshot) Check(n *big.Int) Verdict {
	key := string(n.Bytes())
	home := shardOf(key, len(s.shards))
	// A cluster replica that doesn't own the home shard cannot answer
	// membership: its clean/unknown half is only about the shards it
	// holds. The GCD sweep below still runs over the owned products — a
	// shared prime in any of them is definitive.
	v := Verdict{Status: StatusClean, ModulusBits: n.BitLen(), Shard: home, Partial: !s.owns(home)}
	homeShard := s.shards[home]
	if homeShard.members.has(key) {
		v.Known = true
		if e, ok := homeShard.factored[key]; ok {
			v.Status = StatusFactored
			v.FactorP, v.FactorQ = hexOf(e.P), hexOf(e.Q)
			v.Vendor, v.Attribution = e.Vendor, e.Attribution
		} else if cnt, ok := homeShard.shared[key]; ok {
			// A member with no shared prime can still be anomalous: the
			// same modulus observed under distinct identities at scan
			// time. Any identity holding the private key breaks the rest.
			v.Status = StatusSharedModulus
			v.SharedWith = cnt
		}
		return v
	}
	// GCD path. gcd(n, P mod n) = gcd(n, P) finds the product of n's
	// primes shared with shard product P without ever forming P/n. One
	// Reducer serves every shard: the product is thousands of times
	// longer than n and only the remainder is wanted.
	g := new(big.Int).Set(one)
	var proper *big.Int          // a proper divisor of n, if any shard yields one
	var whole []*prodtree.Forest // shards whose product n divides outright
	red := prodtree.NewReducer(n)
	var r big.Int
	for _, sh := range s.shards {
		product := sh.product()
		if product == nil {
			continue
		}
		if red.Mod(&r, product).Sign() == 0 {
			// Every prime of n is in this shard.
			g.Set(n)
			whole = append(whole, sh.forest)
			continue
		}
		gi := new(big.Int).GCD(nil, nil, n, &r)
		if gi.Cmp(one) <= 0 {
			continue
		}
		if gi.Cmp(n) < 0 {
			proper = gi
		}
		g.Mul(g, gi)
		g.GCD(nil, nil, g, n)
	}
	if g.Cmp(one) == 0 {
		// Novel modulus the corpus cannot touch: run the bounded anomaly
		// probes (trial division, Fermat ascent, Pollard rho). Members
		// skip this — the offline anomaly pass already swept the corpus —
		// and a probe hit is definitive even on a Partial replica.
		if cls, p, q := s.probe.Factor(n); cls != anomaly.ProbeNone {
			switch cls {
			case anomaly.ProbeFermatWeak:
				v.Status = StatusFermatWeak
			case anomaly.ProbeSmallFactor:
				v.Status = StatusSmallFactor
			}
			if p != nil && q != nil {
				if new(big.Int).Mul(p, q).Cmp(n) == 0 {
					v.FactorP, v.FactorQ = hexOf(p), hexOf(q)
				}
				v.Divisor = hexOf(p)
			}
		}
		return v
	}
	v.Status = StatusSharedFactor
	if g.Cmp(n) == 0 && proper == nil {
		// Both primes live in one shard's product, so every per-shard
		// GCD was degenerate: the split is what n shares with one of
		// that shard's members.
		proper = divisorAmongLeaves(whole, n)
	}
	if g.Cmp(n) < 0 {
		proper = g
	}
	if proper != nil {
		p := proper
		q := new(big.Int).Quo(n, p)
		if new(big.Int).Mul(p, q).Cmp(n) == 0 {
			if p.Cmp(q) > 0 {
				p, q = q, p
			}
			v.FactorP, v.FactorQ = hexOf(p), hexOf(q)
		}
	}
	v.Divisor = hexOf(g)
	return v
}

// divisorAmongLeaves returns a proper divisor of n shared with a leaf of
// one of the forests, or nil: gcd(leaf, n) over the leaves a pruned
// descent says share anything with n at all.
func divisorAmongLeaves(forests []*prodtree.Forest, n *big.Int) *big.Int {
	g := new(big.Int)
	for _, f := range forests {
		leaves := f.Leaves()
		for _, i := range f.LeavesSharing(n) {
			if g.GCD(nil, nil, leaves[i], n).Cmp(n) < 0 {
				return g
			}
		}
	}
	return nil
}

// ShardStats describes one shard for /v1/stats.
type ShardStats struct {
	Moduli      int `json:"moduli"`
	Factored    int `json:"factored"`
	Shared      int `json:"shared,omitempty"`
	ProductBits int `json:"product_bits"`
}

// SnapshotStats describes the snapshot for /v1/stats.
type SnapshotStats struct {
	Moduli   int `json:"moduli"`
	Factored int `json:"factored"`
	// Shared counts the members the corpus observed under two or more
	// distinct identities (the shared-modulus graph).
	Shared int `json:"shared,omitempty"`
	// Owned lists the shards this snapshot indexes; absent when the
	// snapshot holds the whole hash space (non-cluster deployments).
	Owned  []int        `json:"owned_shards,omitempty"`
	Shards []ShardStats `json:"shards"`
}

// Stats summarizes the snapshot.
func (s *Snapshot) Stats() SnapshotStats {
	st := SnapshotStats{Moduli: s.moduli, Factored: s.factored, Shared: s.shared, Owned: s.Owned()}
	for _, sh := range s.shards {
		ss := ShardStats{Moduli: sh.members.size(), Factored: len(sh.factored), Shared: len(sh.shared)}
		if p := sh.product(); p != nil {
			ss.ProductBits = p.BitLen()
		}
		st.Shards = append(st.Shards, ss)
	}
	return st
}

// Moduli returns the number of distinct corpus moduli indexed.
func (s *Snapshot) Moduli() int { return s.moduli }

// Factored returns the number of factored corpus moduli indexed.
func (s *Snapshot) Factored() int { return s.factored }

// Shared returns the number of shared-modulus members indexed.
func (s *Snapshot) Shared() int { return s.shared }

// SharedExemplars returns up to n shared-modulus member keys (hex,
// deterministic order) — known-answer inputs for smoke tests.
func (s *Snapshot) SharedExemplars(n int) []string {
	var keys []string
	for _, sh := range s.shards {
		for key := range sh.shared {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	if len(keys) > n {
		keys = keys[:n]
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = hexOf(new(big.Int).SetBytes([]byte(k)))
	}
	return out
}

// Exemplars returns up to n factored and n clean corpus moduli (hex,
// deterministic order) — known-answer inputs for smoke tests and load
// generators.
func (s *Snapshot) Exemplars(n int) (factored, clean []string) {
	var fk, ck []string
	for _, sh := range s.shards {
		for key := range sh.factored {
			fk = append(fk, key)
		}
		ck = append(ck, sh.cleanSample...)
	}
	sort.Strings(fk)
	sort.Strings(ck)
	trunc := func(keys []string) []string {
		if len(keys) > n {
			keys = keys[:n]
		}
		out := make([]string, len(keys))
		for i, k := range keys {
			out[i] = hexOf(new(big.Int).SetBytes([]byte(k)))
		}
		return out
	}
	return trunc(fk), trunc(ck)
}

// Index publishes the live Snapshot. Readers load it with one atomic
// pointer read; Swap folds a rebuilt snapshot in without ever blocking
// them — the factorable.net "fold in the new scan's results" motion.
type Index struct {
	snap  atomic.Pointer[Snapshot]
	swaps atomic.Int64
}

// NewIndex publishes an initial snapshot.
func NewIndex(s *Snapshot) *Index {
	ix := &Index{}
	ix.snap.Store(s)
	return ix
}

// Snapshot returns the currently published snapshot.
func (ix *Index) Snapshot() *Snapshot { return ix.snap.Load() }

// Swap atomically publishes s and returns the previous snapshot.
// In-flight checks keep reading the snapshot they started on.
func (ix *Index) Swap(s *Snapshot) *Snapshot {
	ix.swaps.Add(1)
	return ix.snap.Swap(s)
}

// Swaps counts snapshots published after the initial one.
func (ix *Index) Swaps() int64 { return ix.swaps.Load() }
