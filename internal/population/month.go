// Package population simulates the device ecosystem the paper measured:
// per-vendor device populations evolving from July 2010 through April
// 2016, with deployment growth, churn, end-of-life decline, the
// Heartbleed shock of April 2014, vendor fixes reaching new products, and
// newly vulnerable product lines appearing after 2012.
//
// The simulator is the substitution (DESIGN.md §1) for the paper's
// internet-wide scan corpora: it produces real certificates over real RSA
// keys whose weakness structure matches the paper's failure modes, so the
// entire downstream pipeline — scanning, storage, batch GCD,
// fingerprinting, longitudinal analysis — runs unmodified, just at
// laptop scale. Target curves are parameterised from the numbers and
// figure shapes the paper reports; per-vendor scale factors are recorded
// in EXPERIMENTS.md.
package population

import (
	"fmt"
	"time"
)

// Month indexes the simulation timeline: 0 is July 2010, the EFF SSL
// Observatory's first scan; the timeline ends April 2016, the latest
// Censys scan in the study.
type Month int

// Timeline bounds.
const (
	// StartYear/StartMonth anchor Month 0.
	StartYear  = 2010
	StartMonth = time.July
	// Months is the timeline length: July 2010 .. April 2016 inclusive.
	Months = 70
)

// MonthOf converts a calendar year/month to a timeline index.
func MonthOf(year int, month time.Month) Month {
	return Month((year-StartYear)*12 + int(month) - int(StartMonth))
}

// ParseMonth parses "YYYY-MM" into a timeline index.
func ParseMonth(s string) (Month, error) {
	t, err := time.Parse("2006-01", s)
	if err != nil {
		return 0, fmt.Errorf("population: bad month %q: %w", s, err)
	}
	return MonthOf(t.Year(), t.Month()), nil
}

// MustMonth is ParseMonth for static tables; it panics on bad input.
func MustMonth(s string) Month {
	m, err := ParseMonth(s)
	if err != nil {
		panic(err)
	}
	return m
}

// Time returns the scan instant for the month: the 15th, the mid-month
// representative scan the study selects when sources scanned more often.
func (m Month) Time() time.Time {
	y := StartYear + (int(StartMonth)-1+int(m))/12
	mo := time.Month((int(StartMonth)-1+int(m))%12 + 1)
	return time.Date(y, mo, 15, 0, 0, 0, 0, time.UTC)
}

// String renders "YYYY-MM".
func (m Month) String() string {
	return m.Time().Format("2006-01")
}
