package kernel

import "math/big"

// arenaCap bounds how many scratch values one arena retains. Requests
// past the cap are served with fresh allocations that the arena does
// not keep, so a pathological chunk cannot pin unbounded memory.
const arenaCap = 4096

// Arena is a per-goroutine bag of reusable *big.Int scratch values.
// The engine hands one to each f invocation; Get returns a scratch
// value whose contents are unspecified — use only overwriting
// operations (Mul, Mod, Quo, GCD, Set, ...) on it.
//
// Lifetime contract: a value obtained from Get is valid only until the
// current f invocation returns. The engine recycles it for later
// indices, chunks and tree levels, so storing an arena value into a
// result (a tree node, a returned divisor, ...) would let a later
// chunk scribble over it. Results must always be fresh allocations or
// copies (new(big.Int).Set(v)); the prodtree aliasing regression test
// enforces this for the tree builders.
//
// Arenas are not safe for concurrent use; the engine never shares one
// across goroutines.
type Arena struct {
	eng  *Engine
	ints []*big.Int
	next int

	// hit/miss are accumulated locally and flushed to the engine's
	// atomics on reset, keeping Get free of atomics on the hot path.
	hits, misses int64
}

func newArena(e *Engine) *Arena {
	return &Arena{eng: e}
}

// Get returns a scratch *big.Int with unspecified contents. Recycled
// values keep their grown backing arrays, which is the entire point:
// the second tree build's full-width temporaries land in storage the
// first one already paid for.
func (a *Arena) Get() *big.Int {
	if a == nil {
		return new(big.Int)
	}
	if a.next < len(a.ints) {
		v := a.ints[a.next]
		a.next++
		a.hits++
		return v
	}
	a.misses++
	v := new(big.Int)
	if len(a.ints) < arenaCap {
		a.ints = append(a.ints, v)
		a.next = len(a.ints)
	}
	return v
}

// reset recycles every handed-out value and flushes the hit/miss tally.
// Called by the engine between chunks; never by f.
func (a *Arena) reset() {
	if a.hits != 0 || a.misses != 0 {
		a.eng.arenaHit.Add(a.hits)
		a.eng.arenaMis.Add(a.misses)
		a.hits, a.misses = 0, 0
	}
	a.next = 0
}
