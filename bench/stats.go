package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks (so the median of two values is their mean).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one reported number. Value is the median of Samples (one
// per repetition or window); N is how many raw observations stand behind
// it, so a percentile can be read with its sample count beside it. For
// a metric corrected by machine speed (see ref.go) Samples and Value are
// the corrected ones, Speeds the speed each sample was corrected by, and
// Raw the median as the clock read it.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Alias   string    `json:"alias,omitempty"`
	N       int       `json:"n"`
	Raw     float64   `json:"raw,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
	Speeds  []float64 `json:"speeds,omitempty"`
}

func scalar(unit string, v float64, n int) metric {
	return metric{Value: v, Unit: unit, N: n}
}

// timesAt reports durations measured at the given machine speeds: each
// is scaled to nominal speed (a slow machine's long time shrinks), and
// the median of those is the value.
func timesAt(speeds []float64, unit, alias string, n int, raw []float64) metric {
	at := make([]float64, len(raw))
	for i, v := range raw {
		at[i] = v * speeds[i]
	}
	return metric{Value: median(at), Unit: unit, Alias: alias, N: n, Raw: median(raw), Samples: at, Speeds: speeds}
}

// ratesAt is timesAt for rates: a slow machine's low rate grows.
func ratesAt(speeds []float64, unit, alias string, n int, raw []float64) metric {
	at := make([]float64, len(raw))
	for i, v := range raw {
		at[i] = v / speeds[i]
	}
	return metric{Value: median(at), Unit: unit, Alias: alias, N: n, Raw: median(raw), Samples: at, Speeds: speeds}
}
