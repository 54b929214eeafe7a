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
	"math/bits"
	"sort"
)

// DefaultReplication is the default number of replicas owning each
// shard — the minimum that survives one chaos-kill with no shard
// uncovered.
const DefaultReplication = 2

// MaxShards is the largest shard count a placement takes: the router
// keeps each replica's owned shards as one uint64 mask.
const MaxShards = 64

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
	// index maps a replica name to its position in replicas; the rest is
	// kept by that position. ownerIndex[s] is shard s's ordered owner
	// list: ownerIndex[s][0] is the primary (highest score), the rest
	// are the replication peers in preference order. ownedMask[i] is the
	// shards replica i owns (any position), firstMask[i] those it is
	// primary for.
	index      map[string]int
	ownerIndex [][]int
	ownedMask  []uint64
	firstMask  []uint64
}

// NewPlacement computes the placement for the given ordered replica
// list. Replica names must be unique and non-empty (by convention the
// advertised host:port). replication is clamped to the replica count;
// <=0 selects DefaultReplication.
func NewPlacement(replicas []string, shards, replication int) (*Placement, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: placement needs at least one replica")
	}
	if shards <= 0 || shards > MaxShards {
		return nil, fmt.Errorf("cluster: placement needs a shard count in [1, %d], got %d", MaxShards, shards)
	}
	index := make(map[string]int, len(replicas))
	for i, r := range replicas {
		if r == "" {
			return nil, fmt.Errorf("cluster: empty replica name")
		}
		if _, dup := index[r]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica %q", r)
		}
		index[r] = i
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
		index:       index,
		ownerIndex:  make([][]int, shards),
		ownedMask:   make([]uint64, len(replicas)),
		firstMask:   make([]uint64, len(replicas)),
	}
	type scored struct {
		replica string
		index   int
		score   uint64
	}
	for s := 0; s < shards; s++ {
		ranked := make([]scored, len(replicas))
		for i, r := range replicas {
			ranked[i] = scored{r, i, rendezvousScore(s, r)}
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].score != ranked[j].score {
				return ranked[i].score > ranked[j].score
			}
			return ranked[i].replica < ranked[j].replica
		})
		owners := make([]int, replication)
		for i := range owners {
			owners[i] = ranked[i].index
			p.ownedMask[owners[i]] |= 1 << s
		}
		p.firstMask[owners[0]] |= 1 << s
		p.ownerIndex[s] = owners
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
	owners := make([]string, len(p.ownerIndex[s]))
	for k, i := range p.ownerIndex[s] {
		owners[k] = p.replicas[i]
	}
	return owners
}

// OwnedBy returns the sorted shards replica owns (in any owner
// position); nil when the replica is not in the placement.
func (p *Placement) OwnedBy(replica string) []int {
	i, ok := p.index[replica]
	if !ok {
		return nil
	}
	var owned []int
	for m := p.ownedMask[i]; m != 0; m &= m - 1 {
		owned = append(owned, bits.TrailingZeros64(m))
	}
	return owned
}

// Uncovered returns the shards for which none of the owners satisfies
// alive — the degraded set the router must disclose when it cannot
// reach full coverage.
func (p *Placement) Uncovered(alive func(replica string) bool) []int {
	var out []int
	for s, owners := range p.ownerIndex {
		covered := false
		for _, i := range owners {
			if alive(p.replicas[i]) {
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

// allShards is the mask of every shard.
func (p *Placement) allShards() uint64 { return 1<<p.shards - 1 }

// maskOf returns the shards the named replica owns, as a mask.
func (p *Placement) maskOf(replica string) uint64 {
	if i, ok := p.index[replica]; ok {
		return p.ownedMask[i]
	}
	return 0
}

// pickRound chooses one round of the router's cover loop, over masks
// indexed by replica in list order: need is the shards still to be
// answered for, usable the replicas the prober and breakers would
// admit, failed[i] the needed shards replica i failed so far and
// acked[i] those it answered for. It returns the shards to ask each
// replica this round, and the shards it retires without asking.
//
// A shard's candidates are its owners that have neither answered nor
// failed it, usable ones only while any is left: an unhealthy owner or
// one behind an open breaker is asked only when no usable owner of the
// shard is left. When every owner has failed a shard its slate is
// wiped (failed is updated in place), since transient weather may have
// passed.
//
// With all unset (a check) one answering owner covers a shard, and the
// round asks the fewest candidates that cover every needed shard:
// greedy by coverage, ties to the replica that is primary for more of
// the shards still uncovered, then to list order; should that ever ask
// more replicas than the per-shard first-candidate rule, the rule's
// choice is taken instead. With all set (an ingest) every owner must
// answer for a shard, so every candidate is asked, and a shard some
// owner has answered for whose remaining owners are all unusable
// retires: it landed, short of a copy.
func (p *Placement) pickRound(need uint64, all bool, usable []bool, failed, acked []uint64) (ask []uint64, done uint64) {
	n := len(p.replicas)
	var landed, liveOwed uint64
	owe := make([]uint64, n)
	for i := range owe {
		owe[i] = p.ownedMask[i] & need &^ acked[i]
		landed |= acked[i]
		if usable[i] {
			liveOwed |= owe[i]
		}
	}
	done = need & landed &^ liveOwed
	need &^= done
	var open uint64 // shards some owner may still be asked for
	for i := range owe {
		owe[i] &= need
		open |= owe[i] &^ failed[i]
	}
	var byUsable uint64
	ask = make([]uint64, n)
	for i := range ask {
		failed[i] &= open
		ask[i] = owe[i] &^ failed[i]
		if usable[i] {
			byUsable |= ask[i]
		}
	}
	for i := range ask {
		if !usable[i] {
			ask[i] &^= byUsable
		}
	}
	if all {
		return ask, done
	}
	return p.setCover(ask), done
}

// setCover returns the fewest of the candidate sets cand[i] it finds
// covering their union, each trimmed to the shards it is chosen for.
func (p *Placement) setCover(cand []uint64) []uint64 {
	var rest uint64
	for _, c := range cand {
		rest |= c
	}
	pick := make([]uint64, len(cand))
	chosen := 0
	for ; rest != 0; chosen++ {
		best, bestGain, bestFirst := 0, 0, 0
		for i, c := range cand {
			gain := bits.OnesCount64(c & rest)
			first := bits.OnesCount64(p.firstMask[i] & rest)
			if gain > bestGain || gain == bestGain && gain > 0 && first > bestFirst {
				best, bestGain, bestFirst = i, gain, first
			}
		}
		pick[best] = cand[best] & rest
		rest &^= pick[best]
	}
	if chosen > 1 {
		if fo := p.firstCandidates(cand); replicasAsked(fo) < chosen {
			return fo
		}
	}
	return pick
}

// firstCandidates is the per-shard rule: each shard goes to its
// highest-ranked owner among the candidates.
func (p *Placement) firstCandidates(cand []uint64) []uint64 {
	var rest uint64
	for _, c := range cand {
		rest |= c
	}
	pick := make([]uint64, len(cand))
	for ; rest != 0; rest &= rest - 1 {
		s := bits.TrailingZeros64(rest)
		for _, i := range p.ownerIndex[s] {
			if cand[i]&(1<<s) != 0 {
				pick[i] |= 1 << s
				break
			}
		}
	}
	return pick
}

// replicasAsked counts the replicas a round asks anything of.
func replicasAsked(ask []uint64) int {
	k := 0
	for _, m := range ask {
		if m != 0 {
			k++
		}
	}
	return k
}
