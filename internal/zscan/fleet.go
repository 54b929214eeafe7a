package zscan

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/devices"
	"github.com/factorable/weakkeys/internal/faults"
	"github.com/factorable/weakkeys/internal/population"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

// Prober answers one stateless probe against an address index. The
// engine never retries a probe in place — losses are re-covered by the
// next full-cycle sweep, the ZMap loss model — so a Prober only ever
// reports what one attempt saw.
type Prober interface {
	Probe(ctx context.Context, index uint64) ProbeResult
}

// ProbeResult is the outcome of one probe. Exactly one of Err or a
// certificate payload is meaningful. Simulated probes return the raw
// DER and leave Cert nil — parsing is the harvest loop's job, keeping
// the send path allocation-light; network probes that already parsed
// the certificate may fill Cert directly.
type ProbeResult struct {
	Index  uint64
	DER    []byte
	Cert   *certs.Certificate
	Suites []string
	Err    error
}

// ErrNoDevice reports a probe into empty address space — by far the
// common case of an internet-scale sweep. It is a shared sentinel (no
// allocation on the miss path) and implements net.Error with
// Timeout() == true, so generic classification treats an empty address
// exactly like an unanswered SYN.
var ErrNoDevice error = &simNetError{msg: "zscan: no device at address", timeout: true}

type simNetError struct {
	msg     string
	timeout bool
}

func (e *simNetError) Error() string   { return e.msg }
func (e *simNetError) Timeout() bool   { return e.timeout }
func (e *simNetError) Temporary() bool { return e.timeout }

// Injected-fault outcomes, shaped to classify under retry.Cause the
// same way the real devices.Server faults do over a socket.
var (
	errRefused        = fmt.Errorf("zscan: sim connect: %w", syscall.ECONNREFUSED)
	errReset          = fmt.Errorf("zscan: sim handshake: %w", syscall.ECONNRESET)
	errStall    error = &simNetError{msg: "zscan: sim handshake: i/o timeout", timeout: true}
	errTruncate       = fmt.Errorf("zscan: sim certificate payload: %w", io.ErrUnexpectedEOF)
	errGarble         = fmt.Errorf("zscan: sim server hello: protocol violation")
)

// FleetOptions configures a simulated fleet.
type FleetOptions struct {
	// Space is the address-space size the fleet is scattered over.
	Space uint64
	// Devices is the number of listening devices (default 64; must fit
	// in Space).
	Devices int
	// Vulnerable is the fraction of devices given shared-prime keys
	// from one factory pool (boot cohorts of 2-6 devices sharing their
	// first prime). Default 0.25.
	Vulnerable float64
	// Bits is the RSA modulus size (default 256 — study-scale keys).
	Bits int
	// Seed makes the fleet deterministic: placement, keys, certs.
	Seed int64
	// FaultEvery, when > 0, gives every device a deterministic
	// faults.NewEveryN(FaultEvery, FaultAction) plan: its probes 1,
	// FaultEvery+1, ... fault, everything between passes. With
	// FaultEvery=2 the first sweep faults every device and the second
	// sweep recovers every device — the guaranteed-recovery shape
	// chaos smoke tests want.
	FaultEvery int
	// FaultAction is the action for FaultEvery plans (default Reset).
	FaultAction faults.Action
	// FaultWeights, when any weight is set and FaultEvery is 0, gives
	// every device a seeded probabilistic fault plan.
	FaultWeights faults.Weights
}

func (o FleetOptions) withDefaults() (FleetOptions, error) {
	if o.Space == 0 {
		return o, fmt.Errorf("zscan: fleet needs a non-empty space")
	}
	if o.Devices <= 0 {
		o.Devices = 64
	}
	if uint64(o.Devices) > o.Space {
		return o, fmt.Errorf("zscan: %d devices cannot fit in a space of %d", o.Devices, o.Space)
	}
	if o.Vulnerable < 0 || o.Vulnerable > 1 {
		return o, fmt.Errorf("zscan: Vulnerable fraction %g outside [0,1]", o.Vulnerable)
	}
	if o.Vulnerable == 0 {
		o.Vulnerable = 0.25
	}
	if o.Bits <= 0 {
		o.Bits = 256
	}
	return o, nil
}

// simDevice is one listening endpoint: a pre-marshaled certificate, its
// advertised suites, and an optional per-device fault plan.
type simDevice struct {
	der    []byte
	suites []string
	key    *weakrsa.PrivateKey
	weak   bool
	plan   *faults.Plan
	dead   atomic.Bool // crashed devices stop answering
}

// SimFleet is an in-memory device population: a sparse map from address
// index to device, probed by hash lookup rather than a socket. It is
// what lets a single CI core drive the millions-of-probes regime — the
// wire protocol is exercised separately by devices.Server tests and by
// TCPProber — while keeping the interesting parts real: deterministic
// shared-prime key material, vendor-shaped certificates, and seeded
// per-device fault plans.
type SimFleet struct {
	opts    FleetOptions
	byIndex map[uint64]*simDevice
	indexes []uint64 // sorted, for deterministic iteration
}

// NewSimFleet builds a deterministic fleet: device placement, key
// assignment (shared-prime cohorts for the vulnerable fraction, healthy
// keys for the rest) and certificates are all pure functions of the
// options.
func NewSimFleet(opts FleetOptions) (*SimFleet, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	byIndex := make(map[uint64]*simDevice, o.Devices)
	indexes := make([]uint64, 0, o.Devices)
	for len(indexes) < o.Devices {
		idx := uint64(rng.Int63n(int64(o.Space)))
		if _, dup := byIndex[idx]; dup {
			continue
		}
		byIndex[idx] = nil
		indexes = append(indexes, idx)
	}
	sort.Slice(indexes, func(i, j int) bool { return indexes[i] < indexes[j] })

	factory := population.NewKeyFactory(o.Seed, o.Bits)
	vulnCount := int(o.Vulnerable*float64(o.Devices) + 0.5)
	notBefore := time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)
	notAfter := notBefore.AddDate(10, 0, 0)
	for i, idx := range indexes {
		weak := i < vulnCount
		var key *weakrsa.PrivateKey
		if weak {
			key, err = factory.SharedPrime("fleet", weakrsa.PrimeOpenSSL)
		} else {
			key, err = factory.Healthy()
		}
		if err != nil {
			return nil, fmt.Errorf("zscan: fleet key %d: %w", i, err)
		}
		cert, err := certs.SelfSigned(big.NewInt(int64(i)+1),
			certs.Name{CommonName: "system generated", Organization: "SimFleet"},
			notBefore, notAfter,
			[]string{fmt.Sprintf("device-%d.fleet.sim", i)},
			key.N, key.E, key.D)
		if err != nil {
			return nil, fmt.Errorf("zscan: fleet cert %d: %w", i, err)
		}
		der, err := cert.Marshal()
		if err != nil {
			return nil, fmt.Errorf("zscan: fleet cert %d: %w", i, err)
		}
		suites := []string{devices.SuiteRSA, devices.SuiteECDHE}
		if weak {
			// The embedded-device tell from the paper: weak keys live on
			// gear that only speaks static-RSA key exchange.
			suites = []string{devices.SuiteRSA}
		}
		d := &simDevice{der: der, suites: suites, key: key, weak: weak}
		switch {
		case o.FaultEvery > 0:
			d.plan = faults.NewEveryN(o.FaultEvery, o.FaultAction)
		case o.FaultWeights != (faults.Weights{}):
			d.plan = faults.NewPlan(o.Seed+int64(i)+1, o.FaultWeights)
		}
		byIndex[idx] = d
	}
	return &SimFleet{opts: o, byIndex: byIndex, indexes: indexes}, nil
}

// Probe implements Prober by map lookup. Misses return the shared
// ErrNoDevice sentinel; hits consult the device's fault plan and
// either fail the way the corresponding socket fault would or hand
// back the pre-marshaled DER.
func (f *SimFleet) Probe(_ context.Context, index uint64) ProbeResult {
	d, ok := f.byIndex[index]
	if !ok {
		return ProbeResult{Index: index, Err: ErrNoDevice}
	}
	if d.dead.Load() {
		return ProbeResult{Index: index, Err: ErrNoDevice}
	}
	dec := d.plan.Next()
	if dec.Crash {
		d.dead.Store(true)
		return ProbeResult{Index: index, Err: errReset}
	}
	switch dec.Action {
	case faults.Refuse:
		return ProbeResult{Index: index, Err: errRefused}
	case faults.Reset:
		return ProbeResult{Index: index, Err: errReset}
	case faults.Stall:
		return ProbeResult{Index: index, Err: errStall}
	case faults.Truncate:
		return ProbeResult{Index: index, Err: errTruncate}
	case faults.Garble:
		return ProbeResult{Index: index, Err: errGarble}
	}
	return ProbeResult{Index: index, DER: d.der, Suites: d.suites}
}

// Space returns the configured address-space size.
func (f *SimFleet) Space() uint64 { return f.opts.Space }

// DeviceCount returns the number of devices placed in the space.
func (f *SimFleet) DeviceCount() int { return len(f.indexes) }

// Indexes returns the sorted addresses that have a device listening.
func (f *SimFleet) Indexes() []uint64 {
	out := make([]uint64, len(f.indexes))
	copy(out, f.indexes)
	return out
}

// WeakExemplars returns the lowercase-hex moduli of vulnerable devices
// whose boot cohort has at least two members in the fleet — i.e. keys
// that batch GCD over the fleet's harvest will actually factor. Moduli
// are returned in device order.
func (f *SimFleet) WeakExemplars() []string {
	members := make(map[string]int)
	for _, idx := range f.indexes {
		d := f.byIndex[idx]
		if d.weak {
			members[d.key.P.String()]++
		}
	}
	var out []string
	for _, idx := range f.indexes {
		d := f.byIndex[idx]
		if d.weak && members[d.key.P.String()] >= 2 {
			out = append(out, fmt.Sprintf("%x", d.key.N))
		}
	}
	return out
}

// TCPProber probes real devices.Server endpoints over TCP — the full
// wire protocol, and the only code in the tree that fetches a
// certificate over a socket; the simulated fleet carries the throughput
// regime. A known host list is Space = len(targets) with Addr indexing
// into it.
type TCPProber struct {
	// Addr maps an address index to a dialable host:port.
	Addr func(index uint64) (string, bool)
	// Timeout bounds the dial, and then the handshake, of one probe
	// (default 5s). The handshake is bounded by this connection
	// deadline, not by the context: a canceled run waits out a stalled
	// probe for at most Timeout.
	Timeout time.Duration
	// Heartbeat additionally sends a heartbeat probe on the same
	// connection after a successful fetch — the Heartbleed-scan
	// behaviour that crashed some devices in the wild. The probe's
	// outcome is not reported: the certificate was already harvested,
	// and the effect shows up the way the paper saw it, as devices that
	// refuse the next cycle.
	Heartbeat bool
}

// Probe dials the index's address and runs the certificate fetch.
// Indexes with no mapped address miss with ErrNoDevice.
func (t *TCPProber) Probe(ctx context.Context, index uint64) ProbeResult {
	addr, ok := t.Addr(index)
	if !ok {
		return ProbeResult{Index: index, Err: ErrNoDevice}
	}
	timeout := t.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return ProbeResult{Index: index, Err: err}
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return ProbeResult{Index: index, Err: err}
	}
	cert, suites, err := devices.FetchCertSuites(conn)
	if err != nil {
		return ProbeResult{Index: index, Err: err}
	}
	// Refresh the deadline so a slow handshake cannot fail the heartbeat
	// spuriously; if that fails the connection is already gone and the
	// probe is skipped.
	if t.Heartbeat && conn.SetDeadline(time.Now().Add(timeout)) == nil {
		_ = devices.ProbeHeartbeat(conn, []byte("scan-probe")) // outcome unreported, see Heartbeat
	}
	return ProbeResult{Index: index, Cert: cert, Suites: suites}
}
