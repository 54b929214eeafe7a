package population

import (
	"fmt"
	"sort"
)

// Point is a control point: the target population value at a month.
type Point struct {
	M Month
	V float64
}

// Curve is a piecewise-linear target-population curve in "paper units"
// (hosts as printed in the paper's figures). Evaluation clamps to the
// first/last point outside the control range. Curves encode the figure
// shapes — growth, end-of-life decline, the Heartbleed cliff — directly
// from the paper's plots.
type Curve []Point

// C builds a curve from "YYYY-MM", value pairs; it panics on malformed
// input (curves are static tables) and keeps points sorted.
func C(pairs ...any) Curve {
	if len(pairs)%2 != 0 {
		panic("population: C needs month/value pairs")
	}
	out := make(Curve, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		m := MustMonth(pairs[i].(string))
		var v float64
		switch x := pairs[i+1].(type) {
		case int:
			v = float64(x)
		case float64:
			v = x
		default:
			panic(fmt.Sprintf("population: bad curve value %T", pairs[i+1]))
		}
		out = append(out, Point{M: m, V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].M < out[j].M })
	return out
}

// Eval returns the interpolated target at month m.
func (c Curve) Eval(m Month) float64 {
	if len(c) == 0 {
		return 0
	}
	if m <= c[0].M {
		return c[0].V
	}
	if m >= c[len(c)-1].M {
		return c[len(c)-1].V
	}
	i := sort.Search(len(c), func(i int) bool { return c[i].M >= m })
	lo, hi := c[i-1], c[i]
	frac := float64(m-lo.M) / float64(hi.M-lo.M)
	return lo.V + frac*(hi.V-lo.V)
}
