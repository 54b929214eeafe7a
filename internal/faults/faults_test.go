package faults

import "testing"

func TestEveryN(t *testing.T) {
	p := NewEveryN(3, Reset)
	for i := 0; i < 9; i++ {
		want := Pass
		if i%3 == 0 {
			want = Reset
		}
		if got := p.Next(); got != want {
			t.Errorf("conn %d: action %v, want %v", i+1, got, want)
		}
	}
}

func TestNilPlanPasses(t *testing.T) {
	var p *Plan
	if a := p.Next(); a != Pass {
		t.Errorf("nil plan action: %v", a)
	}
}

func TestActionString(t *testing.T) {
	if got := Truncate.String(); got != "truncate" {
		t.Errorf("Truncate.String() = %q", got)
	}
	if got := Action(99).String(); got != "faults.Action(99)" {
		t.Errorf("Action(99).String() = %q", got)
	}
}
