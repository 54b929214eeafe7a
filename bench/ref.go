package main

import (
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// The box this benchmark runs on does not hold its speed: the same
// binary, and a bare spin loop beside it, run 20% faster or slower from
// one ten-second stretch to the next and 40% apart within an hour, with
// no steal time reported. Left alone, that wander is larger than any
// regression bound worth having. So every timed window, repetition and
// set-up is bracketed by two short runs of a fixed reference kernel on
// all cores, and its CPU-bound metrics are corrected by the machine's
// speed over that window: a rate is divided by it, a time multiplied.
// What is reported is the metric at nominal machine speed; the
// uncorrected value is kept beside it as Raw.

const (
	// refNominal is the kernel's rate, in iterations per second over
	// both cores, of the 2-core reference box in its usual state. It only
	// fixes the scale: a speed of 1.0 means corrected equals raw.
	refNominal = 55000.0
	refBits    = 8192
)

// refOperands are the kernel's fixed inputs: the same work on every
// call, whatever -seed is.
var refOperands = func() (v [3]*big.Int) {
	rng := rand.New(rand.NewSource(20160414))
	limit := new(big.Int).Lsh(big.NewInt(1), refBits)
	for i := range v {
		v[i] = new(big.Int).Rand(rng, limit)
		v[i].SetBit(v[i], refBits-1, 1)
	}
	return v
}()

// machineSpeed runs the reference kernel — a multiplication and a
// reduction of multi-thousand-bit integers, the arithmetic every layer
// under test spends its time in — on every core for slice and returns
// its rate over refNominal. The benchmark's slice (sizes.refSlice) is
// long enough to average scheduler noise and short enough that ten of
// them cost a run a second.
func machineSpeed(slice time.Duration) float64 {
	workers := runtime.GOMAXPROCS(0)
	counts := make([]int, workers)
	a, b, m := refOperands[0], refOperands[1], refOperands[2]
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var z, r big.Int
			for time.Since(t0) < slice {
				for i := 0; i < 16; i++ {
					z.Mul(a, b)
					r.Mod(&z, m)
				}
				counts[w] += 16
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / time.Since(t0).Seconds() / refNominal
}

// speedTrack measures the machine's speed at the boundaries of
// consecutive timed stretches: mark at the start, then lap after each
// stretch returns the mean of the speeds at its two ends.
type speedTrack struct {
	slice time.Duration
	last  float64
}

func (t *speedTrack) mark(slice time.Duration) { t.slice, t.last = slice, machineSpeed(slice) }

func (t *speedTrack) lap() float64 {
	prev := t.last
	t.last = machineSpeed(t.slice)
	return (prev + t.last) / 2
}
