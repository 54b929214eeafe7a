package faults

import "testing"

func drawSequence(p *Plan, n int) []Decision {
	out := make([]Decision, n)
	for i := range out {
		out[i] = p.Next()
	}
	return out
}

// tally counts the actions in a decision sequence.
func tally(seq []Decision) map[Action]int {
	m := make(map[Action]int)
	for _, d := range seq {
		m[d.Action]++
	}
	return m
}

func TestPlanDeterministicBySeed(t *testing.T) {
	w := Weights{Refuse: 0.2, Reset: 0.2, Stall: 0.1, Truncate: 0.1, Garble: 0.1}
	a := drawSequence(NewPlan(42, w), 1000)
	b := drawSequence(NewPlan(42, w), 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	c := drawSequence(NewPlan(43, w), 1000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced an identical 1000-decision sequence")
	}
}

func TestPlanWeightsRoughlyHonored(t *testing.T) {
	p := NewPlan(7, Weights{Refuse: 0.5})
	n := 4000
	got := tally(drawSequence(p, n))
	refused := got[Refuse]
	if refused < n*4/10 || refused > n*6/10 {
		t.Errorf("refuse count %d of %d, want ~50%%", refused, n)
	}
	if got[Garble] != 0 || got[Stall] != 0 {
		t.Errorf("unweighted actions injected: %v", got)
	}
	if got[Pass]+got[Refuse] != n {
		t.Errorf("%v does not sum to %d decisions", got, n)
	}
}

func TestPlanWeightsOverOneNormalized(t *testing.T) {
	// Sum 2.0 → scaled to 1.0, so Pass never fires.
	p := NewPlan(1, Weights{Refuse: 1, Reset: 1})
	if n := tally(drawSequence(p, 500))[Pass]; n != 0 {
		t.Errorf("normalized over-1 weights still passed %d connections", n)
	}
}

func TestEveryN(t *testing.T) {
	p := NewEveryN(3, Reset)
	seq := drawSequence(p, 9)
	for i, d := range seq {
		want := Pass
		if i%3 == 0 {
			want = Reset
		}
		if d.Action != want {
			t.Errorf("conn %d: action %v, want %v", i+1, d.Action, want)
		}
	}
}

func TestCrashAfter(t *testing.T) {
	p := NewEveryN(1000, Pass).CrashAfter(3)
	seq := drawSequence(p, 4)
	for i, d := range seq[:2] {
		if d.Crash {
			t.Errorf("conn %d crashed early", i+1)
		}
	}
	if !seq[2].Crash || !seq[3].Crash {
		t.Error("crash must fire on the 3rd connection and stay fired")
	}
}

func TestNilPlanPasses(t *testing.T) {
	var p *Plan
	if d := p.Next(); d.Action != Pass || d.Crash {
		t.Errorf("nil plan decision: %+v", d)
	}
	if p.CrashAfter(1) != nil {
		t.Error("nil plan CrashAfter should stay nil")
	}
}
