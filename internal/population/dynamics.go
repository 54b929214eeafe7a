package population

import (
	"github.com/factorable/weakkeys/internal/devices"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

// Line is one simulated device family: a fingerprint profile plus its
// population targets. Curves are in simulation units — the paper's
// figure shapes divided by per-vendor scale factors recorded in
// EXPERIMENTS.md — so that vulnerable populations stay statistically
// meaningful at laptop scale while cross-vendor shapes, orderings,
// inflection months and the Heartbleed cliff match the paper.
type Line struct {
	Profile devices.Profile
	// Total targets the whole fingerprinted population; Vuln targets the
	// subset serving factorable keys. Vuln must stay below Total.
	Total Curve
	Vuln  Curve
	// PrimePool names the shared-prime pool for KeySharedPrime lines;
	// defaults to Vendor/Model. Distinct lines naming the same pool
	// share prime material across vendors (Dell Imaging ↔ Xerox).
	PrimePool string
	// CliqueName names the clique for KeyClique lines; defaults to the
	// vendor name. Siemens' overlap line names IBM's clique.
	CliqueName string
	// Churn is the monthly probability a device is replaced (new IP,
	// new certificate, same vulnerability class).
	Churn float64
	// FlipVulnToSafe / FlipSafeToVuln are monthly per-device
	// probabilities of regenerating the certificate into the other
	// class on the same IP — the Juniper transition behaviour
	// (Section 4.1: 1,100 vuln→safe, 1,200 safe→vuln, 250 both).
	FlipVulnToSafe, FlipSafeToVuln float64
	// CrashOnHeartbeat marks firmware that dies when Heartbleed-probed
	// (Juniper NetScreen, HP iLO anecdotes).
	CrashOnHeartbeat bool
	// DeviceCA, when set, issues this family's certificates from a
	// vendor device CA instead of self-signing. The Rapid7 scans
	// recorded such intermediate certificates alongside the leaf
	// without chaining them (Section 3.1); the analysis must
	// reconstruct chains and keep only the lowest certificate.
	DeviceCA bool
	// UnsafeExponent is the broken public exponent KeyUnsafeExponent
	// lines emit; defaults to 1 (the worst of the Tor-study findings:
	// "encryption" that leaves plaintext on the wire).
	UnsafeExponent int
}

// DefaultRSAOnlyShare reproduces the paper's April 2016 measurement: 74%
// of vulnerable devices supported only RSA key exchange, making passive
// decryption possible with a factored key.
const DefaultRSAOnlyShare = 0.74

// pool returns the effective shared-prime pool name.
func (l *Line) pool() string {
	if l.PrimePool != "" {
		return l.PrimePool
	}
	if l.Profile.Model != "" {
		return l.Profile.Vendor + "/" + l.Profile.Model
	}
	return l.Profile.Vendor
}

// unsafeExponent returns the effective broken exponent.
func (l *Line) unsafeExponent() int {
	if l.UnsafeExponent != 0 {
		return l.UnsafeExponent
	}
	return 1
}

// cliqueName returns the effective clique name.
func (l *Line) cliqueName() string {
	if l.CliqueName != "" {
		return l.CliqueName
	}
	return l.Profile.Vendor
}

// DefaultDynamics returns the full study ecosystem: every vendor whose
// time series the paper plots (Figures 3-10), with curve shapes
// transcribed from those figures.
func DefaultDynamics() []Line {
	lines := []Line{
		// Figure 3 — Juniper: vulnerable population RISES for two years
		// after the April/July 2012 advisories; the April 2014
		// Heartbleed shock removes ~3/8 of the total population and a
		// third of the vulnerable one; both recover slightly after.
		{
			Profile: devices.ProfileJuniper,
			Total: C("2010-07", 200, "2011-10", 400, "2012-06", 550,
				"2014-04", 800, "2014-05", 500, "2015-07", 550, "2016-04", 600),
			Vuln: C("2010-07", 15, "2012-02", 35, "2012-07", 40,
				"2014-04", 56, "2014-05", 33, "2015-07", 36, "2016-04", 38),
			Churn:            0.010,
			FlipVulnToSafe:   0.004,
			FlipSafeToVuln:   0.0004,
			CrashOnHeartbeat: true,
		},
		// Figure 4 — Innominate mGuard: vulnerable population stays flat
		// for four years after the June 2012 advisory while the total
		// population grows (fixed new devices, unpatched old ones).
		{
			Profile: devices.ProfileInnominate,
			Total: C("2010-07", 60, "2012-06", 150, "2014-04", 230,
				"2016-04", 300),
			Vuln: C("2010-07", 10, "2012-02", 32, "2012-06", 35,
				"2016-04", 34),
			Churn: 0.006,
		},
		// Figure 5 — IBM RSA-II / BladeCenter MM: the 36-key clique.
		// Already declining by 2012, marked Heartbleed drop. IBM
		// certificates carry no vendor info, so the fingerprinted
		// population IS the vulnerable clique population.
		{
			Profile: devices.ProfileIBM,
			Total: C("2010-07", 120, "2012-02", 80, "2012-09", 70,
				"2014-04", 45, "2014-05", 22, "2016-04", 12),
			Vuln: C("2010-07", 118, "2012-02", 79, "2012-09", 69,
				"2014-04", 44, "2014-05", 21, "2016-04", 11),
			Churn: 0.012, // certificate replacement on IBM devices was IP churn
		},
		// Figure 8 — HP iLO: vulnerable peak in 2012, steady decline,
		// visible post-Heartbleed drop in the total population.
		{
			Profile: devices.ProfileHP,
			Total: C("2010-07", 400, "2012-06", 1000, "2014-04", 900,
				"2014-05", 680, "2016-04", 550),
			Vuln: C("2010-07", 10, "2012-02", 30, "2013-06", 18,
				"2014-04", 12, "2014-05", 8, "2016-04", 4),
			Churn:            0.008,
			CrashOnHeartbeat: true,
		},
		// Figure 9 — never-responded vendors.
		// Thomson: both populations decline together.
		{
			Profile: devices.GenericProfile("Thomson", devices.KeySharedPrime, weakrsa.PrimeOpenSSL),
			Total:   C("2010-07", 2000, "2012-06", 1200, "2016-04", 350),
			Vuln:    C("2010-07", 15, "2012-06", 9, "2016-04", 2),
			Churn:   0.010,
		},
		// Fritz!Box: marked vulnerable increase until a 2014 fix, then
		// decline; total keeps growing. Two sub-lines: the myfritz.net
		// population and the IP-only-subject population that only
		// shared-prime extrapolation can label.
		{
			Profile: devices.ProfileFritzBox,
			Total: C("2010-07", 250, "2012-06", 700, "2014-06", 1250,
				"2016-04", 1350),
			Vuln: C("2010-07", 25, "2012-06", 120, "2014-06", 260,
				"2015-06", 150, "2016-04", 80),
			PrimePool: "Fritz!Box",
			Churn:     0.012,
		},
		{
			Profile:   devices.ProfileFritzBoxIPOnly,
			Total:     C("2010-07", 30, "2014-06", 140, "2016-04", 150),
			Vuln:      C("2010-07", 4, "2014-06", 30, "2015-06", 18, "2016-04", 10),
			PrimePool: "Fritz!Box", // same firmware, same prime material
			Churn:     0.012,
		},
		// Linksys: vulnerable decline tracks the total decline.
		{
			Profile: devices.GenericProfile("Linksys", devices.KeySharedPrime, weakrsa.PrimeOpenSSL),
			Total:   C("2010-07", 1500, "2012-06", 1100, "2016-04", 550),
			Vuln:    C("2010-07", 120, "2012-06", 70, "2016-04", 10),
			Churn:   0.010,
		},
		// Fortinet: total grows strongly; few vulnerable, slow decline.
		{
			Profile:  devices.GenericProfile("Fortinet", devices.KeySharedPrime, weakrsa.PrimeNaive),
			Total:    C("2010-07", 300, "2014-01", 1200, "2016-04", 2000),
			Vuln:     C("2010-07", 25, "2012-06", 20, "2016-04", 8),
			Churn:    0.010,
			DeviceCA: true,
		},
		// ZyXEL: both decline together.
		{
			Profile: devices.GenericProfile("ZyXEL", devices.KeySharedPrime, weakrsa.PrimeNaive),
			Total:   C("2010-07", 800, "2012-06", 650, "2016-04", 280),
			Vuln:    C("2010-07", 80, "2012-06", 55, "2016-04", 14),
			Churn:   0.010,
		},
		// Dell: the Imaging Group line shares prime material with Xerox
		// (Fuji Xerox manufacturing); populations decline gently.
		{
			Profile:   devices.ProfileDellImaging,
			Total:     C("2010-07", 400, "2012-06", 300, "2016-04", 140),
			Vuln:      C("2010-07", 15, "2012-06", 10, "2016-04", 4),
			PrimePool: "Xerox",
			Churn:     0.008,
		},
		// Kronos: small, slow decline, non-OpenSSL stack.
		{
			Profile: devices.GenericProfile("Kronos", devices.KeySharedPrime, weakrsa.PrimeNaive),
			Total:   C("2010-07", 80, "2012-06", 75, "2016-04", 45),
			Vuln:    C("2010-07", 25, "2012-06", 20, "2016-04", 8),
			Churn:   0.006,
		},
		// Xerox: non-OpenSSL; shares its pool with Dell Imaging.
		{
			Profile:   devices.GenericProfile("Xerox", devices.KeySharedPrime, weakrsa.PrimeNaive),
			Total:     C("2010-07", 80, "2012-06", 70, "2016-04", 35),
			Vuln:      C("2010-07", 25, "2012-06", 18, "2016-04", 5),
			PrimePool: "Xerox",
			Churn:     0.006,
		},
		// McAfee SnapGear: declines with its total.
		{
			Profile: devices.ProfileMcAfee,
			Total:   C("2010-07", 60, "2012-06", 50, "2016-04", 18),
			Vuln:    C("2010-07", 18, "2012-06", 12, "2016-04", 3),
			Churn:   0.006,
		},
		// TP-LINK: total grows; vulnerable grows with it, then eases.
		{
			Profile: devices.GenericProfile("TP-LINK", devices.KeySharedPrime, weakrsa.PrimeOpenSSL),
			Total:   C("2010-07", 20, "2014-06", 60, "2016-04", 70),
			Vuln:    C("2010-07", 2, "2014-06", 32, "2016-04", 24),
			Churn:   0.010,
		},
		// Figure 10 — newly vulnerable since 2012.
		// ADTRAN: stable total; HTTPS RSA vulnerability introduced 2015.
		{
			Profile: devices.GenericProfile("ADTRAN", devices.KeySharedPrime, weakrsa.PrimeOpenSSL),
			Total:   C("2010-07", 700, "2016-04", 800),
			Vuln:    C("2014-12", 0, "2015-03", 4, "2016-04", 20),
			Churn:   0.008,
		},
		// D-Link: no response in 2012; small vulnerable population then,
		// dramatic growth after 2013.
		{
			Profile: devices.GenericProfile("D-Link", devices.KeySharedPrime, weakrsa.PrimeOpenSSL),
			Total:   C("2010-07", 1000, "2014-01", 1600, "2016-04", 2000),
			Vuln: C("2010-07", 4, "2012-06", 6, "2013-06", 20,
				"2014-06", 80, "2016-04", 200),
			Churn: 0.012,
		},
		// Huawei: first vulnerable hosts April 2015, dramatic increase;
		// certificates identify an India business unit.
		{
			Profile: devices.GenericProfile("Huawei", devices.KeySharedPrime, weakrsa.PrimeNaive),
			Total:   C("2010-07", 100, "2014-01", 400, "2016-04", 600),
			Vuln:    C("2015-03", 0, "2015-04", 3, "2015-10", 14, "2016-04", 30),
			Churn:   0.012,
		},
		// Sangfor: growing total, small new vulnerable population.
		{
			Profile: devices.GenericProfile("Sangfor", devices.KeySharedPrime, weakrsa.PrimeOpenSSL),
			Total:   C("2010-07", 40, "2013-01", 150, "2016-04", 400),
			Vuln:    C("2014-12", 0, "2015-06", 3, "2016-04", 10),
			Churn:   0.010,
		},
		// Schmid Telecom: tiny population, large vulnerable share.
		{
			Profile: devices.GenericProfile("Schmid Telecom", devices.KeySharedPrime, weakrsa.PrimeOpenSSL),
			Total:   C("2010-07", 8, "2013-01", 12, "2016-04", 15),
			Vuln:    C("2013-06", 0, "2014-06", 4, "2016-04", 8),
			Churn:   0.006,
		},
		// Conel s.r.o.: one of the paper's canonical "O=vendor" subject
		// examples; a small industrial-router population.
		{
			Profile: devices.GenericProfile("Conel s.r.o.", devices.KeySharedPrime, weakrsa.PrimeOpenSSL),
			Total:   C("2010-07", 30, "2013-01", 60, "2016-04", 80),
			Vuln:    C("2010-07", 4, "2013-01", 8, "2016-04", 6),
			Churn:   0.008,
		},
		// Siemens Building Automation: its own shared-prime line, plus
		// the overlap sub-line below serving IBM-clique moduli from
		// February 2013 onward (Section 3.3.2).
		{
			Profile: devices.ProfileSiemens,
			Total:   C("2010-07", 100, "2013-01", 140, "2016-04", 150),
			Vuln:    C("2010-07", 4, "2013-01", 8, "2016-04", 8),
			Churn:   0.006,
		},
		{
			Profile:    devices.ProfileSiemensOverlap,
			Total:      C("2013-01", 0, "2013-02", 6, "2016-04", 24),
			Vuln:       C("2013-01", 0, "2013-02", 6, "2016-04", 24),
			CliqueName: "IBM",
			Churn:      0.004,
		},
	}
	// Figure 6/7 — Cisco: per-model lines so end-of-life effects are
	// visible per model. Totals rise until the EOL month, then decline;
	// vulnerable counts rise through 2014 and ease in the last year
	// (the vendor responded privately, never published an advisory).
	for i, m := range devices.CiscoModels {
		eol := m.EOL
		peak := 300 + 40*float64(i)
		vuln := C("2010-07", peak*0.02, "2012-06", peak*0.06,
			"2014-06", peak*0.10, "2016-04", peak*0.07)
		if m.Model == "RV082" {
			// The paper found vulnerable hosts for every Figure 7 model
			// except the RV082.
			vuln = C("2010-07", 0)
		}
		lines = append(lines, Line{
			Profile: devices.ProfileCisco(m.Model),
			Total: C("2010-07", peak*0.4, eol, peak, "2016-04",
				peak*0.55),
			Vuln:     vuln,
			Churn:    0.010,
			DeviceCA: true,
		})
	}
	return lines
}

// AnomalyLines returns the device families exhibiting the anomalous-key
// classes batch GCD cannot see (the Tor-relays study's taxonomy): close
// primes, small factors, broken exponents, and a fleet-wide shared
// modulus. They are not part of DefaultDynamics — the paper's figures
// don't plot them — but simulations can append them to exercise the
// anomaly analytics end to end.
func AnomalyLines() []Line {
	return []Line{
		// Smartcard-style token vendor whose primes come from one narrow
		// window ("When RSA Fails"): every vulnerable key Fermat-splits.
		{
			Profile: devices.GenericProfile("TokenWorks", devices.KeyClosePrimes, weakrsa.PrimeNaive),
			Total:   C("2010-07", 30, "2016-04", 60),
			Vuln:    C("2010-07", 6, "2016-04", 14),
			Churn:   0.008,
		},
		// A vendor whose firmware short-circuited its primality test and
		// ships moduli with a tiny prime factor.
		{
			Profile: devices.GenericProfile("NetLatch", devices.KeySmallFactor, weakrsa.PrimeNaive),
			Total:   C("2010-07", 25, "2016-04", 45),
			Vuln:    C("2010-07", 5, "2016-04", 10),
			Churn:   0.008,
		},
		// IP cameras emitting e = 1: the modulus is honest but
		// "encryption" is the identity function.
		{
			Profile:        devices.GenericProfile("CamSight", devices.KeyUnsafeExponent, weakrsa.PrimeOpenSSL),
			Total:          C("2010-07", 40, "2016-04", 70),
			Vuln:           C("2010-07", 8, "2016-04", 16),
			UnsafeExponent: 1,
			Churn:          0.010,
		},
		// A router line whose firmware image bakes in one keypair: the
		// whole fleet serves the same modulus under distinct identities.
		{
			Profile: devices.GenericProfile("CloneGate", devices.KeySharedModulus, weakrsa.PrimeNaive),
			Total:   C("2010-07", 30, "2016-04", 55),
			Vuln:    C("2010-07", 10, "2016-04", 20),
			Churn:   0.012,
		},
	}
}
