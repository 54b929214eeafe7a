package cluster

import (
	"context"
	"math/big"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/keycheck"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// The golden corpus, mirroring the keycheck test fixture: fixed 64-bit
// primes so every expected verdict is a literal.
//
//	N1 = p1*p2  in corpus, factored (shares p1 with N2)
//	N2 = p1*p3  in corpus, factored
//	N3 = q1*q2  in corpus, clean
//	Ns = p3*r1  novel, shares p3 with the corpus
//	Nc = r2*r3  novel, clean
var (
	p1 = mustHex("cb1a897ef032256b")
	p2 = mustHex("ba5e34293664b321")
	p3 = mustHex("cddf196d1cc15f59")
	q1 = mustHex("901e692504a24c01")
	q2 = mustHex("fad4173adc25ce7b")
	r1 = mustHex("a627d0c250f0d6ab")
	r2 = mustHex("ea9f25957aa3ea13")
	r3 = mustHex("dd7fc43a8a82154d")

	modN1 = new(big.Int).Mul(p1, p2)
	modN2 = new(big.Int).Mul(p1, p3)
	modN3 = new(big.Int).Mul(q1, q2)
	modNs = new(big.Int).Mul(p3, r1)
	modNc = new(big.Int).Mul(r2, r3)
)

func mustHex(s string) *big.Int {
	n, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("bad hex: " + s)
	}
	return n
}

func goldenStore() (*scanstore.Store, *fingerprint.Result) {
	store := scanstore.New()
	date := time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC)
	store.AddBareKeyObservation("10.0.0.1", date, scanstore.SourceRapid7, scanstore.SSH, modN1)
	store.AddBareKeyObservation("10.0.0.2", date, scanstore.SourceRapid7, scanstore.SSH, modN2)
	store.AddBareKeyObservation("10.0.0.3", date, scanstore.SourceRapid7, scanstore.SSH, modN3)
	fpr := &fingerprint.Result{
		Factors: map[string]fingerprint.Factors{
			string(modN1.Bytes()): {P: p2, Q: p1},
			string(modN2.Bytes()): {P: p1, Q: p3},
		},
	}
	return store, fpr
}

// swapHandler lets a test start an httptest server before the handler
// exists (the placement needs every address before any replica can
// build its shard subset) and swap middleware in later.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) store(h http.Handler) { s.h.Store(http.HandlerFunc(h.ServeHTTP)) }

func (s *swapHandler) load() http.Handler { return s.h.Load().(http.HandlerFunc) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.load().ServeHTTP(w, r)
}

// testReplica is one in-process keyserverd stand-in: a partial-snapshot
// service behind a real HTTP listener, with the sync journal mounted.
type testReplica struct {
	addr    string
	svc     *keycheck.Service
	journal *Journal
	srv     *httptest.Server
	handler *swapHandler
}

// crossOwnedShards finds two shards whose primary owner is each absent
// from the other's owner list: routed ingests homed there land on two
// replicas neither of which holds a copy of the other's shard.
func crossOwnedShards(p *Placement) (sA, sB int, ok bool) {
	for a := 0; a < p.Shards(); a++ {
		for b := a + 1; b < p.Shards(); b++ {
			if !slices.Contains(p.Owners(b), p.Owners(a)[0]) && !slices.Contains(p.Owners(a), p.Owners(b)[0]) {
				return a, b, true
			}
		}
	}
	return 0, 0, false
}

// windowShards finds the routing window's shape: shards sA and sB where
// sA's primary owner holds sB only as a secondary copy, and sB's primary
// is first owner of no shard outside sA's primary — so a check of a key
// homed in sA, answered clean by that primary, never asks sB's primary
// under the per-shard first-owner rule.
func windowShards(p *Placement) (sA, sB int, ok bool) {
	for sA = 0; sA < p.Shards(); sA++ {
		rA := p.Owners(sA)[0]
		for sB = 0; sB < p.Shards(); sB++ {
			owners := p.Owners(sB)
			if owners[0] == rA || !slices.Contains(owners, rA) {
				continue
			}
			asked := false
			for s := 0; s < p.Shards(); s++ {
				if !slices.Contains(p.Owners(s), rA) && p.Owners(s)[0] == owners[0] {
					asked = true
				}
			}
			if !asked {
				return sA, sB, true
			}
		}
	}
	return 0, 0, false
}

// freshPrime is a prime absent from the golden corpus.
var freshPrime = mustHex("eb1289b4ab6c337f")

// homedIn returns a multiple of the prime shared, with a prime cofactor
// brute-forced to home it in shard. The cofactor is prime so that no
// anomaly probe (a small factor, say) can call the key compromised: only
// the shared prime can.
func homedIn(t *testing.T, p *Placement, shared *big.Int, shard int) *big.Int {
	t.Helper()
	c := mustHex("c9d2a6e12c43b285")
	two := big.NewInt(2)
	for i := 0; i < 1<<15; i++ {
		m := new(big.Int).Mul(shared, c)
		if keycheck.ShardOf(m, p.Shards()) == shard && c.ProbablyPrime(20) {
			return m
		}
		c.Add(c, two)
	}
	t.Fatalf("no prime cofactor homes a multiple of %s in shard %d", shared.Text(16), shard)
	return nil
}

// hasBite reports whether a placement has the shape the router tests
// assert against: no replica holds a copy of every shard (else a novel
// check never scatters and one survivor covers the whole corpus), and a
// crossOwnedShards pair exists.
func hasBite(p *Placement) bool {
	for _, name := range p.Replicas() {
		if len(p.OwnedBy(name)) == p.Shards() {
			return false
		}
	}
	_, _, ok := crossOwnedShards(p)
	return ok
}

// newTestCluster builds nReplicas partial replicas over the golden
// corpus plus a router fronting them. Replicas are named by their
// random httptest port and rendezvous placement follows the names, so
// the listeners are re-drawn until the placement hasBite: about one
// draw in eight of 3 replicas x 8 shards x R=2 hands one replica every
// shard. Rejected listeners stay open until cleanup so a re-draw cannot
// be handed the same ports.
func newTestCluster(t *testing.T, nReplicas, shards, replication int) (*Router, []*testReplica) {
	t.Helper()
	store, fpr := goldenStore()

	replicas := make([]*testReplica, nReplicas)
	addrs := make([]string, nReplicas)
	var placement *Placement
	for draw := 0; ; draw++ {
		if draw == 32 {
			t.Fatal("no placement with bite in 32 draws of the listeners")
		}
		for i := range replicas {
			sh := &swapHandler{}
			sh.store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "not ready", http.StatusServiceUnavailable)
			}))
			srv := httptest.NewServer(sh)
			t.Cleanup(srv.Close)
			replicas[i] = &testReplica{
				addr:    strings.TrimPrefix(srv.URL, "http://"),
				srv:     srv,
				handler: sh,
				journal: &Journal{},
			}
			addrs[i] = replicas[i].addr
		}
		var err error
		if placement, err = NewPlacement(addrs, shards, replication); err != nil {
			t.Fatal(err)
		}
		if hasBite(placement) {
			break
		}
	}
	for _, rep := range replicas {
		rep := rep
		snap, err := keycheck.Build(context.Background(), keycheck.BuildInput{
			Store:       store,
			Fingerprint: fpr,
			Shards:      shards,
			OwnShards:   placement.OwnedBy(rep.addr),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.svc = keycheck.NewService(snap, keycheck.Config{
			Workers: 4,
			OnIngest: func(r keycheck.IngestReport) {
				rep.journal.Append(r.NovelKeys)
			},
		})
		api := keycheck.NewAPI(rep.svc, nil, nil)
		mux := http.NewServeMux()
		mux.Handle("/", api.Mux())
		mux.Handle("/v1/sync", rep.journal.Handler())
		rep.handler.store(mux)
	}

	rt, err := NewRouter(RouterConfig{
		Replicas:        addrs,
		Shards:          shards,
		Replication:     replication,
		RequestTimeout:  5 * time.Second,
		Retries:         3,
		RetryBackoff:    5 * time.Millisecond,
		HedgeAfter:      100 * time.Millisecond,
		BreakerFailures: 2,
		BreakerCooldown: 50 * time.Millisecond,
		Metrics:         telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt, replicas
}

// replicaByAddr returns the test replica with the given placement name.
func replicaByAddr(t *testing.T, replicas []*testReplica, addr string) *testReplica {
	t.Helper()
	for _, r := range replicas {
		if r.addr == addr {
			return r
		}
	}
	t.Fatalf("no test replica %s", addr)
	return nil
}

// TestRoutedIngestClosesWindow pins the routing window that a
// single-owner routed ingest left open: keys A and B share a prime, A's
// home primary holds B's shard only as a secondary copy, and B's primary
// is asked for nothing when A's check scatters. Had B landed on its
// primary alone, A's primary would vouch for a copy of B's shard without
// B and the check would answer clean, undegraded, until a sync pull.
// Written to every owner, B reaches A's primary at once, and the check
// before any sync is compromised.
func TestRoutedIngestClosesWindow(t *testing.T) {
	ctx := context.Background()
	for draw := 0; draw < 16; draw++ {
		rt, _ := newTestCluster(t, 3, 8, 2)
		p := rt.Placement()
		sA, sB, ok := windowShards(p)
		if !ok {
			continue
		}
		mA, mB := homedIn(t, p, freshPrime, sA), homedIn(t, p, freshPrime, sB)
		for _, m := range []*big.Int{mA, mB} {
			if resp := rt.ingest(ctx, []string{m.Text(16)}, []*big.Int{m}); resp.DeltaModuli != 1 || resp.Degraded {
				t.Fatalf("routed ingest = %+v, want one modulus on every owner", resp)
			}
		}
		if v := rt.Check(ctx, mA); !v.Compromised() || v.Degraded {
			t.Errorf("check of A before any sync = %+v degraded=%v, want compromised", v.Verdict, v.Degraded)
		}
		return
	}
	t.Fatal("no placement with a routing window in 16 draws")
}
