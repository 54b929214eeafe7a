// Package cluster promotes the in-process keycheck shard snapshot to a
// multi-process deployment: N keyserverd replicas each own a
// placement-assigned subset of the hash-partitioned index (with
// replication), a router scatter-gathers /v1/check across the owners,
// and journal pulls (/v1/sync) propagate ingests between replicas
// without a fleet restart.
//
// The placement discipline is the same "shard without coordination"
// idea "Ten Years of ZMap" applies at the scan layer: every process
// derives the identical shard→replica map from nothing but the ordered
// replica list, so there is no membership service, no leader and no
// placement state to replicate. A replica knows which shards to index
// from its own address; the router knows whom to ask from the same
// arithmetic.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplication is the default number of replicas owning each
// shard — the minimum that survives one chaos-kill with no shard
// uncovered.
const DefaultReplication = 2

// Placement is the deterministic shard→replica assignment: rendezvous
// (highest-random-weight) hashing of each shard across the replica set,
// taking the top Replication scorers as the shard's owners. Rendezvous
// hashing gives the two properties the cluster leans on: every party
// computes the same map independently, and removing a replica moves
// only the shards it owned — the survivors' assignments are untouched,
// so a chaos-kill never triggers a placement-wide reshuffle.
//
// A Placement is immutable after New.
type Placement struct {
	replicas    []string
	shards      int
	replication int
	// owners[s] is the ordered owner list for shard s: owners[s][0] is
	// the primary (highest score), the rest are the replication peers
	// in preference order.
	owners [][]string
	// owned[r] is the sorted shard list replica r owns (any position).
	owned map[string][]int
}

// NewPlacement computes the placement for the given ordered replica
// list. Replica names must be unique and non-empty (by convention the
// advertised host:port). replication is clamped to the replica count;
// <=0 selects DefaultReplication.
func NewPlacement(replicas []string, shards, replication int) (*Placement, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: placement needs at least one replica")
	}
	if shards <= 0 {
		return nil, fmt.Errorf("cluster: placement needs a positive shard count, got %d", shards)
	}
	seen := make(map[string]bool, len(replicas))
	for _, r := range replicas {
		if r == "" {
			return nil, fmt.Errorf("cluster: empty replica name")
		}
		if seen[r] {
			return nil, fmt.Errorf("cluster: duplicate replica %q", r)
		}
		seen[r] = true
	}
	if replication <= 0 {
		replication = DefaultReplication
	}
	if replication > len(replicas) {
		replication = len(replicas)
	}
	p := &Placement{
		replicas:    append([]string(nil), replicas...),
		shards:      shards,
		replication: replication,
		owners:      make([][]string, shards),
		owned:       make(map[string][]int, len(replicas)),
	}
	type scored struct {
		replica string
		score   uint64
	}
	for s := 0; s < shards; s++ {
		ranked := make([]scored, len(replicas))
		for i, r := range replicas {
			ranked[i] = scored{r, rendezvousScore(s, r)}
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].score != ranked[j].score {
				return ranked[i].score > ranked[j].score
			}
			return ranked[i].replica < ranked[j].replica
		})
		owners := make([]string, replication)
		for i := range owners {
			owners[i] = ranked[i].replica
			p.owned[ranked[i].replica] = append(p.owned[ranked[i].replica], s)
		}
		p.owners[s] = owners
	}
	return p, nil
}

// rendezvousScore is the highest-random-weight score of (shard,
// replica), an FNV-1a over both identities.
func rendezvousScore(shard int, replica string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "shard/%d|replica/%s", shard, replica)
	return h.Sum64()
}

// Shards returns the shard count the placement was computed for.
func (p *Placement) Shards() int { return p.shards }

// Replication returns the effective replication factor.
func (p *Placement) Replication() int { return p.replication }

// Replicas returns the ordered replica list.
func (p *Placement) Replicas() []string { return append([]string(nil), p.replicas...) }

// Owners returns shard s's owner list, primary first.
func (p *Placement) Owners(s int) []string {
	if s < 0 || s >= p.shards {
		return nil
	}
	return append([]string(nil), p.owners[s]...)
}

// OwnedBy returns the sorted shards replica owns (in any owner
// position); nil when the replica is not in the placement.
func (p *Placement) OwnedBy(replica string) []int {
	owned, ok := p.owned[replica]
	if !ok {
		return nil
	}
	return append([]int(nil), owned...)
}

// Uncovered returns the shards for which none of the owners satisfies
// alive — the degraded set the router must disclose when it cannot
// reach full coverage.
func (p *Placement) Uncovered(alive func(replica string) bool) []int {
	var out []int
	for s, owners := range p.owners {
		covered := false
		for _, r := range owners {
			if alive(r) {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, s)
		}
	}
	return out
}
