package population

import (
	"context"
	"fmt"
	"log/slog"
	"math/big"
	"math/rand"
	"time"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/devices"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

// Config parameterises a simulation run.
type Config struct {
	// Seed makes the whole ecosystem reproducible.
	Seed int64
	// KeyBits is the RSA modulus size (default 256; see DESIGN.md on the
	// downscaling substitution).
	KeyBits int
	// Scale multiplies every population curve (default 1.0). Tests use
	// small scales; the full study uses 1.0.
	Scale float64
	// Lines is the vendor ecosystem; DefaultDynamics() if nil.
	Lines []Line
	// MITMRate is the per-device probability of sitting behind the
	// key-substituting ISP middlebox (Internet Rimon, Section 3.3.3).
	MITMRate float64
	// BitErrorRate is the per-observation probability that the recorded
	// certificate suffers a single-bit modulus corruption in
	// transmission or storage (Section 3.3.5).
	BitErrorRate float64
	// OtherProtocols adds the SSH and mail-protocol key populations of
	// Table 4 to the corpus.
	OtherProtocols bool
	// IPReuse is the probability a newly deployed device takes over an
	// address a retired device freed, rather than a fresh one. IP churn
	// is what made certificate transitions ambiguous in the paper's
	// IBM analysis ("the varying subjects of these new certificates
	// indicated that these new certificates were due to IP churn").
	IPReuse float64
	// Metrics, when set, receives live harvest telemetry: the
	// population_months_done / population_devices_alive gauges, the
	// population_observations_total counter, the per-month
	// population_month_seconds histogram and the
	// population_sim_hosts_per_sec rate gauge — per-month simulation
	// rates observable while a long harvest runs.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.KeyBits == 0 {
		c.KeyBits = 256
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Lines == nil {
		c.Lines = DefaultDynamics()
	}
	return c
}

// Device is one simulated network device (or, after churn, one device
// incarnation: a fresh IP and certificate).
type Device struct {
	ID         int64
	IP         string
	LineIdx    int
	Vulnerable bool
	BehindMITM bool
	// RSAOnly marks devices supporting only RSA key exchange.
	RSAOnly  bool
	Key      *weakrsa.PrivateKey
	Cert     *certs.Certificate
	Deployed Month
	Retired  Month // -1 while alive
}

// Truth is the ground-truth label for one distinct certificate, used to
// score the fingerprint pipeline.
type Truth struct {
	Vendor     string
	Model      string
	Vulnerable bool
	LineIdx    int
	BehindMITM bool
}

// Series is a per-line ground-truth population time series.
type Series struct {
	Total [Months]int
	Vuln  [Months]int
}

// Simulation evolves the ecosystem month by month and emits scan
// observations.
type Simulation struct {
	cfg     Config
	rng     *rand.Rand
	factory *KeyFactory

	alive   [][]*Device // per line
	nextID  int64
	series  []Series
	truth   map[[32]byte]Truth
	mitmKey *weakrsa.PrivateKey
	freeIPs []string
	// caCerts holds per-line vendor device-CA certificates (lazy).
	caCerts map[int]*caIdentity

	// sshPool tracks the Table 4 SSH host-key population.
	sshHealthy []*big.Int
	sshVuln    []*big.Int
	mailKeys   [][]*big.Int // index-aligned with mailProtocols
}

// mailProtocols are Table 4's mail scans, in the order their keys are
// made and observed; a protocol's third address octet is its index + 1.
var mailProtocols = []scanstore.Protocol{scanstore.POP3S, scanstore.IMAPS, scanstore.SMTPS}

// New creates a simulation.
func New(cfg Config) (*Simulation, error) {
	c := cfg.withDefaults()
	s := &Simulation{
		cfg:     c,
		rng:     rand.New(rand.NewSource(c.Seed)),
		factory: NewKeyFactory(c.Seed+1, c.KeyBits),
		alive:   make([][]*Device, len(c.Lines)),
		series:  make([]Series, len(c.Lines)),
		truth:   make(map[[32]byte]Truth),
		caCerts: make(map[int]*caIdentity),
	}
	if c.MITMRate > 0 {
		k, err := s.factory.Healthy()
		if err != nil {
			return nil, err
		}
		s.mitmKey = k
	}
	return s, nil
}

// Factory exposes the key factory (for ground-truth access to cliques).
func (s *Simulation) Factory() *KeyFactory { return s.factory }

// MITMModulus returns the middlebox's substituted modulus, or nil.
func (s *Simulation) MITMModulus() *big.Int {
	if s.mitmKey == nil {
		return nil
	}
	return s.mitmKey.N
}

// TruthByFP returns ground-truth labels keyed by certificate fingerprint.
func (s *Simulation) TruthByFP() map[[32]byte]Truth { return s.truth }

// TruthSeries returns the ground-truth population series for a line.
func (s *Simulation) TruthSeries(line int) Series { return s.series[line] }

// Lines returns the configured ecosystem.
func (s *Simulation) Lines() []Line { return s.cfg.Lines }

func (s *Simulation) newIP() string {
	if len(s.freeIPs) > 0 && s.rng.Float64() < s.cfg.IPReuse {
		ip := s.freeIPs[len(s.freeIPs)-1]
		s.freeIPs = s.freeIPs[:len(s.freeIPs)-1]
		return ip
	}
	id := s.nextID
	return fmt.Sprintf("10.%d.%d.%d", (id>>16)&0xFF, (id>>8)&0xFF, id&0xFF)
}

// retire takes a device offline and returns its address to the pool.
func (s *Simulation) retire(d *Device, m Month) {
	d.Retired = m
	s.freeIPs = append(s.freeIPs, d.IP)
}

// deploy creates a device for a line in the given vulnerability class.
func (s *Simulation) deploy(lineIdx int, vulnerable bool, m Month) (*Device, error) {
	s.nextID++
	d := &Device{
		ID:         s.nextID,
		IP:         s.newIP(),
		LineIdx:    lineIdx,
		Vulnerable: vulnerable,
		Deployed:   m,
		Retired:    -1,
	}
	if s.cfg.MITMRate > 0 && s.rng.Float64() < s.cfg.MITMRate {
		d.BehindMITM = true
	}
	d.RSAOnly = s.rng.Float64() < DefaultRSAOnlyShare
	if err := s.issueKeyAndCert(d, m); err != nil {
		return nil, err
	}
	s.alive[lineIdx] = append(s.alive[lineIdx], d)
	return d, nil
}

// caIdentity is a vendor device CA: its certificate and signing key.
type caIdentity struct {
	cert *certs.Certificate
	key  *weakrsa.PrivateKey
}

// caFor lazily creates the device CA for a line.
func (s *Simulation) caFor(lineIdx int) (*caIdentity, error) {
	if ca, ok := s.caCerts[lineIdx]; ok {
		return ca, nil
	}
	line := &s.cfg.Lines[lineIdx]
	key, err := s.factory.Healthy()
	if err != nil {
		return nil, err
	}
	name := certs.Name{
		CommonName:   line.Profile.Vendor + " Device CA",
		Organization: line.Profile.Vendor,
	}
	cert, err := certs.SelfSigned(big.NewInt(-(int64(lineIdx) + 1)), name,
		Month(0).Time().AddDate(-5, 0, 0), Month(0).Time().AddDate(20, 0, 0),
		nil, key.N, key.E, key.D)
	if err != nil {
		return nil, err
	}
	ca := &caIdentity{cert: cert, key: key}
	s.caCerts[lineIdx] = ca
	return ca, nil
}

// issueKeyAndCert draws a key of the device's class and builds its
// certificate, registering ground truth.
func (s *Simulation) issueKeyAndCert(d *Device, m Month) error {
	line := &s.cfg.Lines[d.LineIdx]
	var key *weakrsa.PrivateKey
	var err error
	if d.Vulnerable {
		switch line.Profile.VulnerableKeyMode {
		case devices.KeyClique:
			key, err = s.factory.CliqueKey(line.cliqueName(), line.Profile.PrimeGen)
		case devices.KeySharedPrime:
			key, err = s.factory.SharedPrime(line.pool(), line.Profile.PrimeGen)
		case devices.KeyClosePrimes:
			key, err = s.factory.ClosePrimeKey(line.Profile.PrimeGen)
		case devices.KeySmallFactor:
			key, err = s.factory.SmallFactorKey(line.Profile.PrimeGen)
		case devices.KeyUnsafeExponent:
			key, err = s.factory.UnsafeExponentKey(line.Profile.PrimeGen, line.unsafeExponent())
		case devices.KeySharedModulus:
			key, err = s.factory.SharedModulusKey(line.pool(), line.Profile.PrimeGen)
		default:
			return fmt.Errorf("population: line %d marked vulnerable with healthy key mode", d.LineIdx)
		}
	} else {
		key, err = s.factory.Healthy()
	}
	if err != nil {
		return err
	}
	d.Key = key

	id := devices.Identity{IP: d.IP, Serial: d.ID, Model: line.Profile.Model}
	var sans []string
	if line.Profile.DNSNames != nil {
		sans = line.Profile.DNSNames(id)
	}
	nb := m.Time()
	var cert *certs.Certificate
	if line.DeviceCA {
		ca, err := s.caFor(d.LineIdx)
		if err != nil {
			return err
		}
		cert = &certs.Certificate{
			SerialNumber: big.NewInt(d.ID),
			Subject:      line.Profile.Subject(id),
			Issuer:       ca.cert.Subject,
			NotBefore:    nb,
			NotAfter:     nb.AddDate(10, 0, 0),
			DNSNames:     sans,
			N:            key.N,
			E:            key.E,
		}
		if err := cert.SignWith(ca.key.N, ca.key.D); err != nil {
			return err
		}
	} else {
		var err error
		cert, err = certs.SelfSigned(big.NewInt(d.ID), line.Profile.Subject(id),
			nb, nb.AddDate(10, 0, 0), sans, key.N, key.E, key.D)
		if err != nil {
			return err
		}
	}
	d.Cert = cert
	fp, err := cert.Fingerprint()
	if err != nil {
		return err
	}
	s.truth[fp] = Truth{
		Vendor:     line.Profile.Vendor,
		Model:      line.Profile.Model,
		Vulnerable: d.Vulnerable,
		LineIdx:    d.LineIdx,
		BehindMITM: d.BehindMITM,
	}
	return nil
}

// step advances one line by one month: churn, class flips, then target
// tracking.
func (s *Simulation) step(lineIdx int, m Month) error {
	line := &s.cfg.Lines[lineIdx]
	cur := s.alive[lineIdx]

	// Churn: replace devices (new IP, new cert, same class). Deploys
	// append to s.alive[lineIdx]; iterate over the pre-churn snapshot.
	// Deploy before retiring so the replacement never lands on the IP
	// being vacated this very month.
	for _, d := range cur {
		if line.Churn > 0 && s.rng.Float64() < line.Churn {
			if _, err := s.deploy(lineIdx, d.Vulnerable, m); err != nil {
				return err
			}
			s.retire(d, m)
		}
	}
	s.alive[lineIdx] = compactAlive(s.alive[lineIdx])
	cur = s.alive[lineIdx]

	// Flips: regenerate the certificate into the other class, keeping
	// the IP (the Juniper vuln<->safe transitions).
	for _, d := range cur {
		var p float64
		if d.Vulnerable {
			p = line.FlipVulnToSafe
		} else {
			p = line.FlipSafeToVuln
		}
		if p > 0 && s.rng.Float64() < p {
			d.Vulnerable = !d.Vulnerable
			if err := s.issueKeyAndCert(d, m); err != nil {
				return err
			}
		}
	}

	// Track targets.
	targetV := int(line.Vuln.Eval(m)*s.cfg.Scale + 0.5)
	targetT := int(line.Total.Eval(m)*s.cfg.Scale + 0.5)
	if targetV > targetT {
		targetV = targetT
	}
	targetS := targetT - targetV
	var haveV, haveS int
	for _, d := range cur {
		if d.Vulnerable {
			haveV++
		} else {
			haveS++
		}
	}
	adjust := func(have, want int, vulnerable bool) error {
		for have < want {
			if _, err := s.deploy(lineIdx, vulnerable, m); err != nil {
				return err
			}
			have++
		}
		if have > want {
			// Retire the oldest devices of the class first: real
			// population declines shed the long-deployed units.
			for _, d := range s.alive[lineIdx] {
				if have <= want {
					break
				}
				if d.Retired < 0 && d.Vulnerable == vulnerable {
					s.retire(d, m)
					have--
				}
			}
		}
		return nil
	}
	if err := adjust(haveV, targetV, true); err != nil {
		return err
	}
	if err := adjust(haveS, targetS, false); err != nil {
		return err
	}
	s.alive[lineIdx] = compactAlive(s.alive[lineIdx])

	// Record ground truth series.
	var tv, tt int
	for _, d := range s.alive[lineIdx] {
		tt++
		if d.Vulnerable {
			tv++
		}
	}
	s.series[lineIdx].Total[m] = tt
	s.series[lineIdx].Vuln[m] = tv
	return nil
}

func compactAlive(in []*Device) []*Device {
	out := in[:0]
	for _, d := range in {
		if d.Retired < 0 {
			out = append(out, d)
		}
	}
	return out
}

// SourceFor returns the scan source active in a month, mirroring the
// study's source eras (Section 3.1), and whether any scan ran that month.
// The EFF observatory scanned twice (07/2010, 12/2010); P&Q once
// (10/2011); Ecosystem monthly 06/2012-01/2014; Rapid7 through 06/2015;
// Censys through 04/2016. Months between eras have no scan — the gaps
// visible in Figure 1.
func SourceFor(m Month) (scanstore.Source, bool) {
	switch {
	case m == MustMonth("2010-07") || m == MustMonth("2010-12"):
		return scanstore.SourceEFF, true
	case m == MustMonth("2011-10"):
		return scanstore.SourcePQ, true
	case m >= MustMonth("2012-06") && m <= MustMonth("2014-01"):
		return scanstore.SourceEcosystem, true
	case m >= MustMonth("2014-02") && m <= MustMonth("2015-06"):
		return scanstore.SourceRapid7, true
	case m >= MustMonth("2015-07") && m <= MustMonth("2016-04"):
		return scanstore.SourceCensys, true
	default:
		return "", false
	}
}

// Coverage is the fraction of alive hosts a source's methodology actually
// observes; the differences reproduce the between-era level shifts in
// Figure 1 ("artifacts from the different scan methodologies used by each
// team are clearly visible").
func Coverage(src scanstore.Source) float64 {
	switch src {
	case scanstore.SourceEFF:
		return 0.70
	case scanstore.SourcePQ:
		return 0.78
	case scanstore.SourceEcosystem:
		return 0.92
	case scanstore.SourceRapid7:
		// Close to Ecosystem's: a wider gap would manufacture an
		// era-boundary drop in the vulnerable series large enough to
		// compete with the genuine Heartbleed cliff two months later.
		return 0.90
	case scanstore.SourceCensys:
		return 0.98
	default:
		return 1.0
	}
}

// harvestEventMonths is how often, in simulated months, Run reports its
// progress to the event log riding its context.
const harvestEventMonths = 24

// Run simulates the full timeline, writing observations into store. The
// context is checked once per simulated month, so cancelling aborts a
// long harvest between months with an error wrapping the context's.
// Every harvestEventMonths months it emits an info "harvest" event into
// the context's event log (telemetry.EventsFrom).
func (s *Simulation) Run(ctx context.Context, store *scanstore.Store) error {
	if s.cfg.OtherProtocols {
		if err := s.buildOtherProtocolKeys(); err != nil {
			return err
		}
	}
	reg := s.cfg.Metrics
	monthsDone := reg.Gauge("population_months_done")
	aliveGauge := reg.Gauge("population_devices_alive")
	rateGauge := reg.Gauge("population_sim_hosts_per_sec")
	monthHist := reg.Histogram("population_month_seconds", telemetry.DurationBuckets)
	harvestSpan := telemetry.SpanFrom(ctx)
	events := telemetry.EventsFrom(ctx)
	for m := Month(0); m < Months; m++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("population: harvest cancelled at month %d/%d: %w", int(m), int(Months), err)
		}
		sp := harvestSpan.Child(m.String())
		t0 := time.Now()
		for li := range s.cfg.Lines {
			if err := s.step(li, m); err != nil {
				sp.End()
				return err
			}
		}
		if src, ok := SourceFor(m); ok {
			if err := s.observe(store, m, src); err != nil {
				sp.End()
				return err
			}
		}
		alive := 0
		for _, line := range s.alive {
			alive += len(line)
		}
		elapsed := time.Since(t0)
		monthsDone.Set(float64(int(m) + 1))
		aliveGauge.Set(float64(alive))
		monthHist.ObserveDuration(elapsed)
		if secs := elapsed.Seconds(); secs > 0 {
			rateGauge.Set(float64(alive) / secs)
		}
		sp.SetArg("devices_alive", alive)
		sp.End()
		if done := int(m) + 1; done%harvestEventMonths == 0 {
			events.Info(ctx, "harvest", slog.Int("month", done), slog.Int("months", int(Months)))
		}
	}
	if s.cfg.OtherProtocols {
		s.observeOtherProtocols(store)
	}
	return nil
}

// observe samples the alive population per the source's coverage and
// records host observations, applying the MITM substitution and
// transmission bit errors.
func (s *Simulation) observe(store *scanstore.Store, m Month, src scanstore.Source) error {
	obs := s.cfg.Metrics.Counter("population_observations_total")
	cov := Coverage(src)
	date := m.Time()
	for li, line := range s.alive {
		for _, d := range line {
			if s.rng.Float64() > cov {
				continue
			}
			cert := d.Cert
			if d.BehindMITM {
				cert = s.substituteMITM(cert)
			}
			// Rapid7's collection recorded intermediate certificates at
			// the same address without chaining them (Section 3.1).
			if src == scanstore.SourceRapid7 && s.cfg.Lines[li].DeviceCA {
				if ca, err := s.caFor(li); err == nil {
					inter := scanstore.Observation{
						IP: d.IP, Date: date, Source: src,
						Protocol: scanstore.HTTPS, Cert: ca.cert,
						RSAOnly: d.RSAOnly,
					}
					if err := store.Add(inter); err != nil {
						return err
					}
				}
			}
			if s.cfg.BitErrorRate > 0 && s.rng.Float64() < s.cfg.BitErrorRate {
				cert = corruptObservation(cert, s.rng)
			}
			err := store.Add(scanstore.Observation{
				IP: d.IP, Date: date, Source: src, Protocol: scanstore.HTTPS,
				Cert: cert, RSAOnly: d.RSAOnly,
			})
			if err != nil {
				return err
			}
			obs.Inc()
		}
	}
	return nil
}

// substituteMITM returns a copy of cert with only the public key swapped
// for the middlebox's fixed key — signature and all other fields kept,
// exactly the Internet Rimon behaviour.
func (s *Simulation) substituteMITM(c *certs.Certificate) *certs.Certificate {
	out := *c
	out.N = s.mitmKey.N
	out.E = s.mitmKey.E
	return &out
}

// corruptObservation flips one random low-half bit of the modulus in the
// recorded copy.
func corruptObservation(c *certs.Certificate, rng *rand.Rand) *certs.Certificate {
	out := *c
	out.N = weakrsa.CorruptBits(c.N, rng.Intn(c.N.BitLen()-2))
	return &out
}

// buildOtherProtocolKeys creates the Table 4 key populations: SSH host
// keys with a small vulnerable subset, and clean mail-protocol keys.
func (s *Simulation) buildOtherProtocolKeys() error {
	mk := func(n int, out *[]*big.Int) error {
		for i := 0; i < n; i++ {
			k, err := s.factory.Healthy()
			if err != nil {
				return err
			}
			*out = append(*out, k.N)
		}
		return nil
	}
	if err := mk(60, &s.sshHealthy); err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		k, err := s.factory.SharedPrime("ssh-hostkeys", weakrsa.PrimeNaive)
		if err != nil {
			return err
		}
		s.sshVuln = append(s.sshVuln, k.N)
	}
	s.mailKeys = make([][]*big.Int, len(mailProtocols))
	for o := range mailProtocols {
		if err := mk(45, &s.mailKeys[o]); err != nil {
			return err
		}
	}
	return nil
}

// observeOtherProtocols emits the one-shot protocol scans of Table 4:
// SSH on 2015-10, the mail protocols on 2016-04.
func (s *Simulation) observeOtherProtocols(store *scanstore.Store) {
	sshDate := time.Date(2015, 10, 29, 0, 0, 0, 0, time.UTC)
	i := 0
	for _, n := range s.sshHealthy {
		store.AddBareKeyObservation(fmt.Sprintf("172.16.0.%d", i), sshDate, scanstore.SourceCensys, scanstore.SSH, n)
		i++
	}
	for _, n := range s.sshVuln {
		store.AddBareKeyObservation(fmt.Sprintf("172.16.0.%d", i), sshDate, scanstore.SourceCensys, scanstore.SSH, n)
		i++
	}
	mailDate := time.Date(2016, 4, 25, 0, 0, 0, 0, time.UTC)
	for o, proto := range mailProtocols {
		for j, n := range s.mailKeys[o] {
			store.AddBareKeyObservation(fmt.Sprintf("172.17.%d.%d", o+1, j), mailDate, scanstore.SourceCensys, proto, n)
		}
	}
}
