package population

import (
	"testing"
	"time"
)

func TestMonthConversions(t *testing.T) {
	if MonthOf(2010, time.July) != 0 {
		t.Error("July 2010 should be month 0")
	}
	if MonthOf(2016, time.April) != 69 {
		t.Errorf("April 2016 = %d, want 69", MonthOf(2016, time.April))
	}
	if Months != 70 {
		t.Errorf("timeline = %d months", Months)
	}
	for _, s := range []string{"2010-07", "2012-02", "2014-04", "2016-04"} {
		m, err := ParseMonth(s)
		if err != nil {
			t.Fatal(err)
		}
		if m.String() != s {
			t.Errorf("round trip %q -> %q", s, m.String())
		}
	}
	if _, err := ParseMonth("2012/02"); err == nil {
		t.Error("bad format accepted")
	}
}

func TestMonthTime(t *testing.T) {
	got := MustMonth("2014-04").Time()
	if got.Year() != 2014 || got.Month() != time.April || got.Day() != 15 {
		t.Errorf("scan instant: %v", got)
	}
}

func TestMustMonthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMonth should panic on bad input")
		}
	}()
	MustMonth("not-a-month")
}

func TestCurveEval(t *testing.T) {
	c := C("2011-01", 100, "2012-01", 200, "2014-01", 200)
	cases := []struct {
		m    string
		want float64
	}{
		{"2010-07", 100}, // clamp before
		{"2011-01", 100},
		{"2011-07", 150}, // midpoint
		{"2012-01", 200},
		{"2013-01", 200},
		{"2016-04", 200}, // clamp after
	}
	for _, tc := range cases {
		if got := c.Eval(MustMonth(tc.m)); got != tc.want {
			t.Errorf("Eval(%s) = %v, want %v", tc.m, got, tc.want)
		}
	}
	if (Curve{}).Eval(0) != 0 {
		t.Error("empty curve should evaluate to 0")
	}
}

func TestCurveSortsPoints(t *testing.T) {
	c := C("2014-01", 50, "2011-01", 100) // out of order input
	if c[0].M != MustMonth("2011-01") {
		t.Error("curve points should sort by month")
	}
}

func TestCurveBadInputsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { C("2011-01") },
		func() { C("2011-01", "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
