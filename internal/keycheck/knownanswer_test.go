package keycheck

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/distgcd"
	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/scanstore"
)

// knownAnswer is one row of the table every entry point of the GCD core
// must reproduce: the modulus p*q and the divisor batch GCD reports for
// it against the rest of the table (nil: shares nothing).
type knownAnswer struct {
	p, q, div *big.Int
}

func (ka knownAnswer) n() *big.Int { return new(big.Int).Mul(ka.p, ka.q) }

// knownAnswers is built from the fixed test primes only, no RNG.
func knownAnswers() []knownAnswer {
	rows := []knownAnswer{
		{p1, p2, p1}, // a pair sharing p1
		{p1, p3, p1},
		{s1, s2, s1}, // a triple on s1
		{s1, s3, s1},
		{s1, s4, s1},
		{q1, q2, nil}, // the 3-prime clique: both primes shared, divisor == N
		{q2, r1, nil},
		{q1, r1, nil},
		{r2, r3, nil}, // clean
		{s5, s6, nil},
		{p1, p2, p1},  // exact duplicate of a vulnerable key
		{r2, r3, nil}, // exact duplicate of a clean key
	}
	for i := 5; i <= 7; i++ {
		rows[i].div = rows[i].n()
	}
	return rows
}

// TestKnownAnswersGCDCore: the single-tree algorithm and the k-subset
// cluster run report the table's index → divisor map, for every k.
func TestKnownAnswersGCDCore(t *testing.T) {
	ctx := context.Background()
	rows := knownAnswers()
	moduli := make([]*big.Int, len(rows))
	for i, ka := range rows {
		moduli[i] = ka.n()
	}
	check := func(entry string, res []batchgcd.Result) {
		t.Helper()
		got := make(map[int]*big.Int, len(res))
		for _, r := range res {
			if got[r.Index] != nil {
				t.Errorf("%s: index %d reported twice", entry, r.Index)
			}
			got[r.Index] = r.Divisor
		}
		for i, ka := range rows {
			if (got[i] == nil) != (ka.div == nil) || (ka.div != nil && got[i].Cmp(ka.div) != 0) {
				t.Errorf("%s: index %d divisor = %v, want %v", entry, i, got[i], ka.div)
			}
		}
	}
	res, err := batchgcd.FactorCtx(ctx, moduli)
	if err != nil {
		t.Fatal(err)
	}
	check("FactorCtx", res)
	for _, k := range []int{1, 2, 3, len(moduli)} {
		res, _, err := distgcd.Run(ctx, moduli, distgcd.Options{Subsets: k})
		if err != nil {
			t.Fatalf("distgcd k=%d: %v", k, err)
		}
		check(fmt.Sprintf("distgcd.Run k=%d", k), res)
	}
}

// knownStore observes rows as bare keys under one identity.
func knownStore(rows []knownAnswer) *scanstore.Store {
	st := scanstore.New()
	for i, ka := range rows {
		st.AddBareKeyObservation("10.2.0.1", date(2014, 3, 1+i), scanstore.SourceCensys, scanstore.SSH, ka.n())
	}
	return st
}

// knownFactors is the factor table a study over rows hands Build.
func knownFactors(rows []knownAnswer) *fingerprint.Result {
	fp := &fingerprint.Result{Factors: make(map[string]fingerprint.Factors)}
	for _, ka := range rows {
		if ka.div == nil {
			continue
		}
		p, q := ka.p, ka.q
		if p.Cmp(q) > 0 {
			p, q = q, p
		}
		fp.Factors[string(ka.n().Bytes())] = fingerprint.Factors{P: p, Q: q}
	}
	return fp
}

// ingestSplit folds rows into base as two deltas, split at the given row.
func ingestSplit(t *testing.T, base *Snapshot, rows []knownAnswer, split int) *Snapshot {
	t.Helper()
	snap := base
	for _, part := range [][]knownAnswer{rows[:split], rows[split:]} {
		if len(part) == 0 {
			continue
		}
		var err error
		if snap, _, err = snap.Ingest(context.Background(), BuildInput{Store: knownStore(part)}); err != nil {
			t.Fatalf("split %d: %v", split, err)
		}
	}
	return snap
}

// TestKnownAnswersBuildVsIngest: a full snapshot grown from Empty by two
// ingests answers every table row exactly as the one-shot Build over the
// study's factor table does — status, membership and factor strings —
// wherever the table is split.
func TestKnownAnswersBuildVsIngest(t *testing.T) {
	rows := knownAnswers()
	for _, shards := range []int{1, 4} {
		full, err := Build(context.Background(), BuildInput{Store: knownStore(rows), Fingerprint: knownFactors(rows), Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for i, ka := range rows {
			wantSweepVerdict(t, full, ka.n(), "shards=%d row %d built", shards, i)
		}
		for split := 0; split <= len(rows); split++ {
			inc := ingestSplit(t, Empty(shards), rows, split)
			for i, ka := range rows {
				wantSweepVerdict(t, inc, ka.n(), "shards=%d split=%d row %d ingested", shards, split, i)
				want, got := full.Check(ka.n()), inc.Check(ka.n())
				if got != want {
					t.Errorf("shards=%d split=%d row %d: ingested %+v, built %+v", shards, split, i, got, want)
				}
				wantStatus := StatusClean
				if ka.div != nil {
					wantStatus = StatusFactored
				}
				if got.Status != wantStatus || !got.Known {
					t.Errorf("shards=%d split=%d row %d: %s/known=%v, want %s/known", shards, split, i, got.Status, got.Known, wantStatus)
				}
			}
		}
	}
}

// TestKnownAnswersPartialReplicas: two replicas owning complementary
// shard sets, grown by ingest, jointly convict exactly the table's
// vulnerable rows at every split — the router's compromised-wins
// combine over one verdict per replica, membership from the home owner
// — and agree with the same pair built one-shot. A single replica may
// lag (a foreign mate that arrived before the member is never indexed
// here); the pair may not.
func TestKnownAnswersPartialReplicas(t *testing.T) {
	const shards = 4
	ctx := context.Background()
	rows := knownAnswers()
	owners := [][]int{{0, 2}, {1, 3}}
	combine := func(replicas []*Snapshot, n *big.Int) (compromised, known bool) {
		for _, r := range replicas {
			v := r.Check(n)
			compromised = compromised || v.Compromised()
			known = known || (v.Known && !v.Partial)
		}
		return compromised, known
	}
	built := make([]*Snapshot, len(owners))
	for r, own := range owners {
		var err error
		built[r], err = Build(ctx, BuildInput{Store: knownStore(rows), Fingerprint: knownFactors(rows), Shards: shards, OwnShards: own})
		if err != nil {
			t.Fatal(err)
		}
		for i, ka := range rows {
			wantSweepVerdict(t, built[r], ka.n(), "row %d built replica %d", i, r)
		}
	}
	for split := 0; split <= len(rows); split++ {
		grown := make([]*Snapshot, len(owners))
		for r, own := range owners {
			empty, err := Build(ctx, BuildInput{Store: scanstore.New(), Shards: shards, OwnShards: own})
			if err != nil {
				t.Fatal(err)
			}
			grown[r] = ingestSplit(t, empty, rows, split)
		}
		for i, ka := range rows {
			gc, gk := combine(grown, ka.n())
			bc, bk := combine(built, ka.n())
			if gc != bc || gk != bk || gc != (ka.div != nil) || !gk {
				t.Errorf("split=%d row %d: grown compromised/known = %v/%v, built %v/%v, table %v/true",
					split, i, gc, gk, bc, bk, ka.div != nil)
			}
			for r, rep := range grown {
				wantSweepVerdict(t, rep, ka.n(), "split=%d row %d grown replica %d", split, i, r)
				v := rep.Check(ka.n())
				if v.FactorP == "" {
					continue
				}
				truth := map[string]bool{ka.p.Text(16): true, ka.q.Text(16): true}
				if !truth[v.FactorP] || !truth[v.FactorQ] || v.FactorP == v.FactorQ {
					t.Errorf("split=%d row %d: factors %s,%s, want %s,%s", split, i, v.FactorP, v.FactorQ, ka.p.Text(16), ka.q.Text(16))
				}
			}
		}
	}
}
