package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

var testReplicas = []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"}

func TestPlacementDeterministic(t *testing.T) {
	a, err := NewPlacement(testReplicas, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlacement(testReplicas, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		if !reflect.DeepEqual(a.Owners(s), b.Owners(s)) {
			t.Errorf("shard %d: owners differ between identical placements: %v vs %v",
				s, a.Owners(s), b.Owners(s))
		}
	}
}

func TestPlacementReplication(t *testing.T) {
	p, err := NewPlacement(testReplicas, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < p.Shards(); s++ {
		owners := p.Owners(s)
		if len(owners) != 2 {
			t.Fatalf("shard %d: %d owners, want 2", s, len(owners))
		}
		if owners[0] == owners[1] {
			t.Errorf("shard %d: duplicate owner %s", s, owners[0])
		}
	}
	// OwnedBy must be the inverse of Owners.
	total := 0
	for _, r := range testReplicas {
		owned := p.OwnedBy(r)
		total += len(owned)
		for _, s := range owned {
			found := false
			for _, o := range p.Owners(s) {
				if o == r {
					found = true
				}
			}
			if !found {
				t.Errorf("replica %s claims shard %d but is not in Owners(%d)=%v", r, s, s, p.Owners(s))
			}
		}
	}
	if total != 8*2 {
		t.Errorf("sum of owned shards = %d, want %d", total, 8*2)
	}
	if p.OwnedBy("127.0.0.1:9999") != nil {
		t.Error("OwnedBy(unknown) != nil")
	}
}

// TestPlacementStability pins the rendezvous property the chaos story
// leans on: removing one replica must not move any shard between the
// survivors — only the dead replica's assignments are redistributed.
func TestPlacementStability(t *testing.T) {
	before, err := NewPlacement(testReplicas, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewPlacement(testReplicas[:2], 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 32; s++ {
		was := before.Owners(s)[0]
		if was == testReplicas[2] {
			continue // the removed replica's shards may go anywhere
		}
		if now := after.Owners(s)[0]; now != was {
			t.Errorf("shard %d moved %s -> %s though its owner survived", s, was, now)
		}
	}
}

func TestPlacementClampsReplication(t *testing.T) {
	p, err := NewPlacement(testReplicas[:2], 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Replication() != 2 {
		t.Errorf("replication = %d, want clamped 2", p.Replication())
	}
	p, err = NewPlacement(testReplicas, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Replication() != DefaultReplication {
		t.Errorf("replication = %d, want default %d", p.Replication(), DefaultReplication)
	}
}

func TestPlacementRejectsBadInput(t *testing.T) {
	if _, err := NewPlacement(nil, 8, 2); err == nil {
		t.Error("no error for empty replica list")
	}
	if _, err := NewPlacement([]string{"a", "a"}, 8, 2); err == nil {
		t.Error("no error for duplicate replica")
	}
	if _, err := NewPlacement([]string{"a", ""}, 8, 2); err == nil {
		t.Error("no error for empty replica name")
	}
	if _, err := NewPlacement(testReplicas, 0, 2); err == nil {
		t.Error("no error for zero shards")
	}
	if _, err := NewPlacement(testReplicas, MaxShards+1, 2); err == nil {
		t.Errorf("no error for %d shards", MaxShards+1)
	}
}

func TestUncovered(t *testing.T) {
	p, err := NewPlacement(testReplicas, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Uncovered(func(string) bool { return true }); got != nil {
		t.Errorf("all alive: uncovered = %v, want none", got)
	}
	// With replication 2 of 3 replicas, killing one replica must leave
	// every shard covered by its surviving owner.
	for _, dead := range testReplicas {
		got := p.Uncovered(func(r string) bool { return r != dead })
		if got != nil {
			t.Errorf("one dead (%s): uncovered = %v, want none", dead, got)
		}
	}
	// Killing two replicas uncovers exactly the shards they co-owned.
	dead := map[string]bool{testReplicas[0]: true, testReplicas[1]: true}
	got := p.Uncovered(func(r string) bool { return !dead[r] })
	for s := 0; s < p.Shards(); s++ {
		owners := p.Owners(s)
		want := dead[owners[0]] && dead[owners[1]]
		has := false
		for _, u := range got {
			if u == s {
				has = true
			}
		}
		if has != want {
			t.Errorf("shard %d (owners %v): uncovered=%v, want %v", s, owners, has, want)
		}
	}
}

// firstOwnerRule is the per-shard selection the set-cover round
// replaced, kept as its oracle: each needed shard goes to its first
// owner, in placement rank, that has not failed it — usable owners
// before the rest — and a shard every owner failed has its slate wiped
// first. failed is read, not changed.
func firstOwnerRule(p *Placement, need uint64, usable []bool, failed []uint64) []uint64 {
	ask := make([]uint64, len(p.Replicas()))
	for s := 0; s < p.Shards(); s++ {
		if need&(1<<s) == 0 {
			continue
		}
		owners := p.ownerIndex[s]
		wiped := true
		for _, i := range owners {
			wiped = wiped && failed[i]&(1<<s) != 0
		}
		pick := -1
		for _, i := range owners {
			if wiped || failed[i]&(1<<s) == 0 {
				if usable[i] {
					pick = i
					break
				}
				if pick < 0 {
					pick = i
				}
			}
		}
		ask[pick] |= 1 << s
	}
	return ask
}

// checkRound asserts what every check round owes, whatever the inputs:
// it asks for every needed shard (an owner is always left once slates
// are wiped), each shard of one replica, only shards that replica owns,
// an unusable replica only for shards with no usable candidate left,
// and never more replicas than the first-owner rule. It returns the
// replicas asked and the rule's count.
func checkRound(t *testing.T, p *Placement, need uint64, usable []bool, failed []uint64) (int, int) {
	t.Helper()
	before := append([]uint64(nil), failed...)
	rule := replicasAsked(firstOwnerRule(p, need, usable, before))
	ask, done := p.pickRound(need, false, usable, failed, make([]uint64, len(usable)))
	if done != 0 {
		t.Fatalf("need %b: a check round retired %b unasked", need, done)
	}
	var union uint64
	for i, m := range ask {
		if m&union != 0 {
			t.Fatalf("need %b: shards %b asked of two replicas", need, m&union)
		}
		union |= m
		if m&^p.ownedMask[i] != 0 {
			t.Fatalf("need %b: replica %d asked for shards %b it does not own", need, i, m&^p.ownedMask[i])
		}
		if usable[i] || m == 0 {
			continue
		}
		for s := 0; s < p.Shards(); s++ {
			for _, j := range p.ownerIndex[s] {
				if m&(1<<s) != 0 && usable[j] && failed[j]&(1<<s) == 0 {
					t.Fatalf("need %b: unusable replica %d asked for shard %d while usable owner %d is left", need, i, s, j)
				}
			}
		}
	}
	if union != need {
		t.Fatalf("need %b: round asks for %b", need, union)
	}
	got := replicasAsked(ask)
	if got > rule {
		t.Fatalf("need %b: %d replicas asked, the first-owner rule asks %d", need, got, rule)
	}
	return got, rule
}

// TestCoverOneReplicaPerScatter: with 3 replicas and R=2 each shard
// misses one replica, so whatever a home answer left to scatter — the
// shards its replica does not own, or any subset — both other replicas
// hold all of it, and the round asks exactly one of them. Every owner
// assignment of 5 shards is tried.
func TestCoverOneReplicaPerScatter(t *testing.T) {
	const shards = 5
	usable := []bool{true, true, true}
	pairs := [][2]int{{0, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 2}, {2, 1}}
	fewer := 0
	for code := 0; code < 7776; code++ { // 6^5 assignments
		p := &Placement{shards: shards, replication: 2, replicas: testReplicas,
			ownedMask: make([]uint64, 3), firstMask: make([]uint64, 3), ownerIndex: make([][]int, shards)}
		for s, c := 0, code; s < shards; s, c = s+1, c/6 {
			pr := pairs[c%6]
			p.ownerIndex[s] = pr[:]
			p.ownedMask[pr[0]] |= 1 << s
			p.ownedMask[pr[1]] |= 1 << s
			p.firstMask[pr[0]] |= 1 << s
		}
		for home := 0; home < 3; home++ {
			left := p.allShards() &^ p.ownedMask[home]
			for need := left; ; need = (need - 1) & left { // every subset of left
				want := 1
				if need == 0 {
					want = 0
				}
				got, rule := checkRound(t, p, need, usable, make([]uint64, 3))
				if got != want {
					t.Fatalf("owners %v, home %d, need %b: %d replicas asked, want %d", p.ownerIndex, home, need, got, want)
				}
				if got < rule {
					fewer++
				}
				if need == 0 {
					break
				}
			}
		}
	}
	if fewer == 0 {
		t.Error("the set cover never asked fewer replicas than the first-owner rule")
	}
}

// TestCoverNeverWorseThanFirstOwner draws rendezvous placements of 2-8
// replicas at R=1-3 over 8 shards and tries every need set, with every
// replica usable and then with one unusable and another having failed
// its shards: the round never asks more replicas than the first-owner
// rule, and checkRound's other promises hold.
func TestCoverNeverWorseThanFirstOwner(t *testing.T) {
	cases, fewer := 0, 0
	for n := 2; n <= 8; n++ {
		for r := 1; r <= 3; r++ {
			for draw := 0; draw < 4; draw++ {
				names := make([]string, n)
				for i := range names {
					names[i] = fmt.Sprintf("10.0.%d.%d:9000", draw, i)
				}
				p, err := NewPlacement(names, 8, r)
				if err != nil {
					t.Fatal(err)
				}
				for need := uint64(0); need < 256; need++ {
					usable := make([]bool, n)
					for i := range usable {
						usable[i] = true
					}
					got, rule := checkRound(t, p, need, usable, make([]uint64, n))
					cases++
					if got < rule {
						fewer++
					}
					usable[int(need)%n] = false
					failed := make([]uint64, n)
					failed[(int(need)+1)%n] = p.ownedMask[(int(need)+1)%n]
					checkRound(t, p, need, usable, failed)
				}
			}
		}
	}
	t.Logf("%d cases, %d with fewer replicas than the first-owner rule", cases, fewer)
}

// TestCoverAllOwners: an ingest round asks every live owner of every
// needed shard; a shard some owner acked whose other owner is unusable
// retires, landed short of a copy; and an unusable owner is asked only
// when the shard has no usable owner at all.
func TestCoverAllOwners(t *testing.T) {
	p, err := NewPlacement(testReplicas, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	need := p.allShards()
	ask, done := p.pickRound(need, true, []bool{true, true, true}, make([]uint64, 3), make([]uint64, 3))
	if done != 0 || !slices.Equal(ask, p.ownedMask) {
		t.Errorf("healthy write-all round asks %b (done %b), want every owner %b", ask, done, p.ownedMask)
	}

	// Replica 0 is down: its shards land on their other owner alone.
	usable := []bool{false, true, true}
	acked := make([]uint64, 3)
	ask, done = p.pickRound(need, true, usable, make([]uint64, 3), acked)
	if ask[0] != 0 || done != 0 {
		t.Errorf("round with replica 0 down asks it %b (done %b), want nothing", ask[0], done)
	}
	acked[1], acked[2] = ask[1], ask[2]
	ask, done = p.pickRound(need&^(ask[1]&ask[2]), true, usable, make([]uint64, 3), acked)
	if replicasAsked(ask) != 0 || done != p.ownedMask[0] {
		t.Errorf("after the live owners acked: asks %b, retires %b; want nothing asked and %b retired", ask, done, p.ownedMask[0])
	}

	// Every owner of a shard down: the last resort asks them anyway.
	usable = []bool{false, false, true}
	both := p.ownedMask[0] & p.ownedMask[1]
	ask, _ = p.pickRound(both, true, usable, make([]uint64, 3), make([]uint64, 3))
	if ask[0] != both || ask[1] != both {
		t.Errorf("shards %b with both owners down: asks %b, want both owners asked", both, ask)
	}
}
