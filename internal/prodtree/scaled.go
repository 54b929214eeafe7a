package prodtree

import (
	"context"
	"fmt"
	"math/big"

	"github.com/factorable/weakkeys/internal/kernel"
	"github.com/factorable/weakkeys/internal/telemetry"
)

// Bernstein's scaled remainder tree: instead of x mod node, carry the
// fraction y = frac(x/node) down the tree. For a child c of p with
// sibling s, x/c = (x/p)·s, so frac(x/c) = frac(y_p·s): each step is a
// multiplication, and with the transform a short one, since only the
// fraction's top limbs are kept — y_c holds limbs(c)+guard fractional
// limbs, so the cyclic product of length limbs(c)+limbs(s)+guard may wrap
// the integer part of y_p·s onto limbs that are thrown away. At a node
// below the crossover, x mod node = round(node·y) mod node (the "mod"
// takes y just under 1, where the remainder is 0) and the division
// descent takes over. The root's fraction comes from one Newton
// reciprocal R ≈ B^(2n+guard)/P, B = 2⁶⁴, which also reduces the products
// folded in at the root (Barrett), so a tree with foreign products
// still descends once.
//
// Every step truncates or wraps by at most a unit or two in the last
// limb kept, and an error of e units at a node of n limbs moves
// round(node·y) by under e·B^(−guard): the rounding is exact while e is
// below 2¹²⁷, against a few units per level.

// guard is the fraction's precision past its node's length, in limbs.
const guard = 2

// scaledCrossover is the node length in limbs from which a level takes
// the scaled step instead of division (see EXPERIMENTS.md, DIVMUL).
const scaledCrossover = 1536

// recipBase is the precision in limbs below which a reciprocal is one
// big.Int division rather than a Newton step.
const recipBase = 64

// topLimbs returns d cut to its top keep limbs (d itself when shorter).
func topLimbs(d *big.Int, keep int) *big.Int {
	if n := limbs(d.Bits()); n > keep {
		return new(big.Int).Rsh(d, uint(64*(n-keep)))
	}
	return d
}

// reciprocal returns ⌊B^(limbs(d)+h) / d⌋ to within a few units, d > 0,
// by Newton's iteration r ← r + r·(1 − d·r), doubling the precision per
// step on operands cut to it. Cancellation is checked between steps.
func (m *multiplier) reciprocal(ctx context.Context, d *big.Int, h int) (*big.Int, error) {
	hs := []int{h}
	for hs[len(hs)-1] > recipBase {
		hs = append(hs, hs[len(hs)-1]/2+2)
	}
	// The base: an exact quotient over the top limbs. Cutting d to h+2
	// limbs moves a precision-h reciprocal by at most a unit or two.
	hb := hs[len(hs)-1]
	dt := topLimbs(d, hb+2)
	r := new(big.Int).Lsh(one, uint(64*(limbs(dt.Bits())+hb)))
	r.Quo(r, dt)
	for i := len(hs) - 2; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hp, h := hs[i+1], hs[i]
		dt := topLimbs(d, h+2)
		n := limbs(dt.Bits())
		// r ≈ B^(n+hp)/dt, so e = B^(n+hp) − dt·r is a few units of Bⁿ
		// and B^(n+h)/dt = B^(h−hp)·(r + e/dt) ≈ r·B^(h−hp) + e·r/B^(n+2hp−h).
		// That sum needs only e's top h−hp+2 limbs, from lo up, and dt·r's
		// limbs from n+2 up are known, so e/B^lo comes from a middle
		// product, −(dt·r)/B^lo mod B^k, k = n+2−lo, taken in (−B^k/2, B^k/2].
		lo := max(n+hp-h-2, 0)
		k := n + 2 - lo
		e := m.middle(dt, r, lo, n+2)
		if e.BitLen() == 64*k {
			e.Sub(new(big.Int).Lsh(one, uint(64*k)), e)
		} else {
			e.Neg(e)
		}
		e = m.mul(e, e, r)
		e.Rsh(e, uint(64*(n+2*hp-h-lo)))
		r.Lsh(r, uint(64*(h-hp))).Add(r, e)
	}
	return r, nil
}

// barrett returns u mod d for 0 ≤ u < d², with R ≈ B^(2n+guard)/d and n
// = limbs(d): the quotient from u's top limbs times R is short of the
// true one by a unit or two, which the final corrections take up.
func (m *multiplier) barrett(u, d, R *big.Int) *big.Int {
	n := limbs(d.Bits())
	q := new(big.Int).Rsh(u, uint(64*(n-1)))
	q = m.mul(q, q, R)
	q.Rsh(q, uint(64*(n+guard+1)))
	r := new(big.Int).Sub(u, m.mul(q, q, d))
	for r.Sign() < 0 {
		r.Add(r, d)
	}
	for r.Cmp(d) >= 0 {
		r.Sub(r, d)
	}
	return r
}

// middle returns limbs [lo, hi) of x·y, hi ≤ the product's length, as a
// number, to within a unit in limb lo: on the transform the length need
// only reach hi and wrap the product's limbs past it onto those below
// lo, whose carry may reach lo.
func (m *multiplier) middle(x, y *big.Int, lo, hi int) *big.Int {
	xw, yw := x.Bits(), y.Bits()
	L := nttLen(max(hi, limbs(xw)+limbs(yw)-lo))
	if limbs(xw) < mulCrossover || limbs(yw) < mulCrossover || L == 0 {
		p := new(big.Int).Mul(x, y)
		return new(big.Int).SetBits(window(p.Bits(), lo, hi))
	}
	out := make([]big.Word, (hi-lo)*wpl)
	m.convolve([][]big.Word{xw, yw}, L, []product{{terms: [][2]int{{0, 1}}, out: out, lo: lo}})
	return new(big.Int).SetBits(out)
}

// window returns limbs [lo, hi) of ws as hi−lo limbs of words, zero where
// ws is shorter.
func window(ws []big.Word, lo, hi int) []big.Word {
	out := make([]big.Word, (hi-lo)*wpl)
	if lo*wpl < len(ws) {
		copy(out, ws[lo*wpl:min(hi*wpl, len(ws))])
	}
	return out
}

// fracLimbs is the fractional precision carried for a node.
func fracLimbs(node *big.Int) int { return limbs(node.Bits()) + guard }

// scaledStep returns the fractions of the children of a parent with
// fraction y: frac(y·c1) for c0 and frac(y·c0) for c1, each cut to its
// node's precision. The two products share y's transform.
func (m *multiplier) scaledStep(y []big.Word, c0, c1 *big.Int) (y0, y1 []big.Word) {
	fp := limbs(y)
	f0, f1 := fracLimbs(c0), fracLimbs(c1)
	w0, w1 := c0.Bits(), c1.Bits()
	// The integer part of y·s wraps onto limbs below fp − f_c as long as
	// the length covers limbs(s) + f_c; both products need the same.
	L := nttLen(limbs(w0) + limbs(w1) + guard)
	if limbs(w0) < scaledCrossover || limbs(w1) < scaledCrossover || L == 0 {
		yi := new(big.Int).SetBits(y)
		p0 := new(big.Int).Mul(yi, c1)
		p1 := new(big.Int).Mul(yi, c0)
		return window(p0.Bits(), fp-f0, fp), window(p1.Bits(), fp-f1, fp)
	}
	y0, y1 = make([]big.Word, f0*wpl), make([]big.Word, f1*wpl)
	m.convolve([][]big.Word{y, w1, w0}, L, []product{
		{terms: [][2]int{{0, 1}}, out: y0, lo: fp - f0},
		{terms: [][2]int{{0, 2}}, out: y1, lo: fp - f1},
	})
	return y0, y1
}

// roundMod returns x mod node from node's fraction y = frac(x/node).
func (m *multiplier) roundMod(node *big.Int, y []big.Word) *big.Int {
	f := limbs(y)
	r := m.mul(new(big.Int), node, new(big.Int).SetBits(y))
	r.Add(r, new(big.Int).Lsh(one, uint(64*f-1)))
	r.Rsh(r, uint(64*f))
	if r.Cmp(node) >= 0 {
		r.Sub(r, node)
	}
	return r
}

// scaledTop runs the top of the plain descent for a root of at least
// scaledCrossover limbs: x·∏foreign mod root, its fraction, and the
// scaled steps down to the first level below the crossover, which it
// returns with x·∏foreign mod each of its nodes.
func (t *Tree) scaledTop(ctx context.Context, x *big.Int, foreign []*big.Int) (int, []*big.Int, error) {
	eng := kernel.FromContext(ctx)
	m := newMultiplier(ctx)
	top := len(t.Levels) - 1
	root := t.Levels[top][0]
	n := limbs(root.Bits())

	sp := telemetry.SpanFrom(ctx).Child("prodtree.reciprocal")
	R, err := m.reciprocal(ctx, root, n+guard)
	if err != nil {
		return 0, nil, fmt.Errorf("prodtree: reciprocal cancelled: %w", err)
	}
	sp.SetArg("words", len(R.Bits()))
	sp.End()

	sp = telemetry.SpanFrom(ctx).Child("prodtree.down")
	red := NewReducer(root)
	z := red.Mod(new(big.Int), x)
	for _, f := range foreign {
		if err := ctx.Err(); err != nil {
			return 0, nil, fmt.Errorf("prodtree: remainder tree cancelled at level %d: %w", top, err)
		}
		fr := red.Mod(new(big.Int), f)
		z = m.barrett(m.mul(fr, fr, z), root, R)
	}
	// z < root, so z·R/Bⁿ < B^(n+guard): the fraction's n+guard limbs.
	zr := m.mul(new(big.Int), z, R)
	ys := [][]big.Word{window(zr.Bits(), n, 2*n+guard)}
	endLevel(sp, top, t.Levels[top])

	for lvl := top - 1; ; lvl-- {
		nodes := t.Levels[lvl]
		next := make([][]big.Word, len(nodes))
		sp := telemetry.SpanFrom(ctx).Child("prodtree.down")
		err := eng.Run(ctx, (len(nodes)+1)/2, func(j int, _ *kernel.Arena) {
			if 2*j+1 == len(nodes) {
				next[2*j] = ys[j] // carried up unchanged: the same node
				return
			}
			next[2*j], next[2*j+1] = m.scaledStep(ys[j], nodes[2*j], nodes[2*j+1])
		})
		if err == nil && (lvl == 0 || !scaledLevel(nodes)) {
			// The first level below the crossover: its remainders, for
			// division below it.
			rems := make([]*big.Int, len(nodes))
			err = eng.Run(ctx, len(nodes), func(i int, _ *kernel.Arena) { rems[i] = m.roundMod(nodes[i], next[i]) })
			if err == nil {
				endLevel(sp, lvl, nodes)
				return lvl, rems, nil
			}
		}
		if err != nil {
			return 0, nil, fmt.Errorf("prodtree: remainder tree cancelled at level %d: %w", lvl, err)
		}
		endLevel(sp, lvl, nodes)
		ys = next
	}
}

// scaledLevel reports whether a level below the root takes the scaled
// step: its nodes are at least scaledCrossover limbs long.
func scaledLevel(nodes []*big.Int) bool { return limbs(nodes[0].Bits()) >= scaledCrossover }
