package zscan

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/devices"
	"github.com/factorable/weakkeys/internal/faults"
	"github.com/factorable/weakkeys/internal/retry"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

// deviceCert is test device i's certificate: its own seeded key, and a
// subject naming it.
func deviceCert(t *testing.T, i int) *certs.Certificate {
	t.Helper()
	k, err := weakrsa.GenerateKey(rand.New(rand.NewSource(int64(100+i))), weakrsa.Options{Bits: 96})
	if err != nil {
		t.Fatal(err)
	}
	c, err := certs.SelfSigned(big.NewInt(int64(i)),
		certs.Name{CommonName: fmt.Sprintf("dev-%d", i), Organization: "FleetVendor"},
		time.Unix(0, 0), time.Unix(1<<40, 0), nil, k.N, k.E, k.D)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// tcpFleet starts n loopback devices.Server (conf, when non-nil, edits
// device i before it starts serving) and returns them with a prober
// whose address index i is device i; indexes >= n are unmapped.
func tcpFleet(t *testing.T, n int, conf func(i int, s *devices.Server)) ([]*devices.Server, *TCPProber) {
	t.Helper()
	servers := make([]*devices.Server, n)
	addrs := make([]string, n)
	for i := range servers {
		srv := &devices.Server{Cert: deviceCert(t, i)}
		if conf != nil {
			conf(i, srv)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		servers[i], addrs[i] = srv, ln.Addr().String()
	}
	return servers, &TCPProber{
		Addr: func(i uint64) (string, bool) {
			if i >= uint64(n) {
				return "", false
			}
			return addrs[i], true
		},
		Timeout: 5 * time.Second,
	}
}

// sweepTCP runs an engine over the prober and returns its report and
// store; opts supplies Space, Cycles and the like.
func sweepTCP(t *testing.T, prober Prober, opts Options) (Report, *scanstore.Store) {
	t.Helper()
	opts.Prober, opts.Store = prober, scanstore.New()
	opts.Workers = 4
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep, opts.Store
}

// recordsByIP groups the stored records by address; device i's is
// indexToIP(i).
func recordsByIP(store *scanstore.Store) map[string][]scanstore.HostRecord {
	byIP := make(map[string][]scanstore.HostRecord)
	for _, r := range store.Records() {
		byIP[r.IP] = append(byIP[r.IP], r)
	}
	return byIP
}

// TestTCPCleanFleet: every device of a fault-free fleet is stored
// exactly once with its own certificate, the advertised suites reach
// the record (odd devices are RSA-only), and unmapped indexes of the
// larger space are misses, not errors.
func TestTCPCleanFleet(t *testing.T) {
	const n, space = 10, 16
	_, prober := tcpFleet(t, n, func(i int, s *devices.Server) {
		if i%2 == 1 {
			s.Suites = []string{devices.SuiteRSA}
		}
	})
	rep, store := sweepTCP(t, prober, Options{Space: space, Seed: 1})
	if rep.Probes != space || rep.Hits != n || rep.Misses != space-n || rep.Errors != nil {
		t.Fatalf("report = %+v, want %d probes, %d hits, %d misses, no errors", rep, space, n, space-n)
	}
	if rep.Stored != n || rep.NovelModuli != n || rep.StoreErrors != 0 {
		t.Fatalf("stored %d novel %d store errors %d, want %d/%d/0", rep.Stored, rep.NovelModuli, rep.StoreErrors, n, n)
	}
	byIP := recordsByIP(store)
	for i := uint64(0); i < n; i++ {
		recs := byIP[indexToIP(i)]
		if len(recs) != 1 {
			t.Fatalf("device %d stored %d times, want once", i, len(recs))
		}
		c := store.Cert(recs[0].CertFP)
		if c == nil || c.Subject.CommonName != fmt.Sprintf("dev-%d", i) || c.Subject.Organization != "FleetVendor" {
			t.Errorf("device %d: stored certificate %+v is not its own", i, c)
		}
		if want := i%2 == 1; recs[0].RSAOnly != want {
			t.Errorf("device %d: RSAOnly = %v, want %v", i, recs[0].RSAOnly, want)
		}
	}
}

// TestTCPFaultClassification holds the socket to the simulated twin:
// each injected devices.Server fault must land in Report.Errors under
// the cause faultCases pins for SimFleet's stand-in error.
func TestTCPFaultClassification(t *testing.T) {
	for _, tc := range faultCases {
		if tc.action == faults.Pass {
			continue
		}
		t.Run(tc.action.String(), func(t *testing.T) {
			const n = 2
			_, prober := tcpFleet(t, n, func(_ int, s *devices.Server) {
				s.Faults = faults.NewEveryN(1, tc.action)
			})
			prober.Timeout = 150 * time.Millisecond // what a Stall waits out
			rep, _ := sweepTCP(t, prober, Options{Space: n, Seed: 1})
			if rep.Errors[tc.socket] != n || len(rep.Errors) != 1 || rep.Hits != 0 || rep.Misses != 0 {
				t.Fatalf("report = %+v, want %d %q errors and nothing else", rep, n, tc.socket)
			}
		})
	}
}

// TestTCPResweepRecoversFaults is TestEngineResweepRecoversFaults over
// sockets: every device resets its first connection, nothing is retried
// in place, and the second cycle completes the harvest.
func TestTCPResweepRecoversFaults(t *testing.T) {
	const n = 12
	_, prober := tcpFleet(t, n, func(_ int, s *devices.Server) {
		s.Faults = faults.NewEveryN(2, faults.Reset)
		s.CrashOnHeartbeat = true // harmless: Heartbeat is off, nothing probes
	})
	rep, store := sweepTCP(t, prober, Options{Space: n, Seed: 3, Cycles: 2})
	if rep.Probes != 2*n || rep.Errors[retry.CauseReset] != n || len(rep.Errors) != 1 {
		t.Fatalf("report = %+v, want %d probes and %d resets", rep, 2*n, n)
	}
	if rep.Stored != n || rep.NovelModuli != n {
		t.Fatalf("stored %d novel %d, want the complete fleet of %d", rep.Stored, rep.NovelModuli, n)
	}
	if got := len(recordsByIP(store)); got != n {
		t.Fatalf("%d distinct devices stored, want %d", got, n)
	}
}

// TestTCPClosedPortRefused: a port nothing listens on is the one real
// "refused", and the live devices beside it are still harvested.
func TestTCPClosedPortRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	_, live := tcpFleet(t, 2, nil)
	prober := &TCPProber{Timeout: 2 * time.Second, Addr: func(i uint64) (string, bool) {
		if i == 2 {
			return dead, true
		}
		return live.Addr(i)
	}}
	rep, _ := sweepTCP(t, prober, Options{Space: 3, Seed: 1})
	if rep.Errors[retry.CauseRefused] != 1 || len(rep.Errors) != 1 || rep.Stored != 2 {
		t.Fatalf("report = %+v, want 1 refused and 2 stored", rep)
	}
}

// TestTCPHeartbeatTakesDevicesOffline is the Heartbleed-scan effect as
// the paper saw it: the probe's outcome is not in the result, the
// crash-prone firmware is simply gone from the next sweep.
func TestTCPHeartbeatTakesDevicesOffline(t *testing.T) {
	const n = 6
	crashy := map[int]bool{1: true, 4: true}
	servers, prober := tcpFleet(t, n, func(i int, s *devices.Server) {
		s.CrashOnHeartbeat = crashy[i]
	})
	prober.Heartbeat = true
	rep, store := sweepTCP(t, prober, Options{Space: n, Seed: 5, Cycles: 2})
	for i, s := range servers {
		if s.Crashed() != crashy[i] {
			t.Errorf("device %d: Crashed() = %v, want %v", i, s.Crashed(), crashy[i])
		}
	}
	if rep.Errors[retry.CauseRefused] != uint64(len(crashy)) || len(rep.Errors) != 1 {
		t.Fatalf("errors = %v, want exactly the %d crashed devices refusing cycle 2", rep.Errors, len(crashy))
	}
	if want := 2*n - len(crashy); rep.Stored != want {
		t.Fatalf("stored = %d, want %d", rep.Stored, want)
	}
	byIP := recordsByIP(store)
	for i := 0; i < n; i++ {
		want := 2
		if crashy[i] {
			want = 1 // the certificate was fetched before the probe killed it
		}
		if got := len(byIP[indexToIP(uint64(i))]); got != want {
			t.Errorf("device %d stored in %d cycles, want %d", i, got, want)
		}
	}
}

// helloListener signals once a served connection has delivered bytes —
// the client hello — to the server: the probe on the other end has
// finished its dial and is inside the handshake.
type helloListener struct {
	net.Listener
	hello chan struct{}
}

func (l *helloListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &helloConn{Conn: c, hello: l.hello}, nil
}

type helloConn struct {
	net.Conn
	hello chan struct{}
}

func (c *helloConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		select {
		case c.hello <- struct{}{}:
		default:
		}
	}
	return n, err
}

// TestTCPCancelDuringStall: the handshake is bounded by the connection
// deadline, not the context, so a run canceled while a probe sits in a
// stalled handshake waits that one probe out — for at most Timeout —
// and still returns the partial report.
func TestTCPCancelDuringStall(t *testing.T) {
	const space, timeout = 8, 300 * time.Millisecond
	srv := &devices.Server{Cert: deviceCert(t, 0), Faults: faults.NewEveryN(1, faults.Stall)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hello := make(chan struct{}, 1)
	go srv.Serve(&helloListener{Listener: ln, hello: hello})
	t.Cleanup(func() { srv.Close() })
	// Every address is the one tarpit.
	prober := &TCPProber{Timeout: timeout, Addr: func(uint64) (string, bool) { return ln.Addr().String(), true }}
	eng, err := New(Options{Space: space, Seed: 1, Workers: 2, Prober: prober, Store: scanstore.New()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-hello
		cancel()
	}()
	start := time.Now()
	rep, err := eng.Run(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// One stall: not cut short by the cancel, and not space/Workers of
	// them in sequence.
	if elapsed < timeout/2 || elapsed > timeout+2*time.Second {
		t.Errorf("canceled run took %v, want about one %v probe timeout", elapsed, timeout)
	}
	// The other worker's probe may have been canceled in its dial.
	timeouts, canceled := rep.Errors[retry.CauseTimeout], rep.Errors[retry.CauseCanceled]
	if timeouts == 0 || rep.Probes >= space || timeouts+canceled != rep.Probes {
		t.Errorf("partial report = %+v, want only the in-flight probes, the stalled one a timeout", rep)
	}
}

// TestEngineSkipsUnstorableCertificate: a certificate the store rejects
// is counted and skipped, and the probes harvested after it are still
// stored. One worker makes the walk order the harvest order, so the
// rejected certificate is provably the first one harvested.
func TestEngineSkipsUnstorableCertificate(t *testing.T) {
	const n = 4
	var bad uint64
	prober := proberFunc(func(_ context.Context, i uint64) ProbeResult {
		if i == bad {
			return ProbeResult{Index: i, Cert: &certs.Certificate{}}
		}
		return ProbeResult{Index: i, Cert: deviceCert(t, int(i))}
	})
	store := scanstore.New()
	eng, err := New(Options{Space: n, Seed: 1, Workers: 1, Prober: prober, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	walk, err := eng.Cycle().Shard(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad, _ = walk.Next()
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.StoreErrors != 1 || rep.Stored != n-1 || rep.Hits != n {
		t.Fatalf("report = %+v, want 1 store error, %d stored, %d hits", rep, n-1, n)
	}
	if byIP := recordsByIP(store); len(byIP) != n-1 || byIP[indexToIP(bad)] != nil {
		t.Fatalf("stored devices = %d (bad one stored: %v), want the %d good ones", len(byIP), byIP[indexToIP(bad)] != nil, n-1)
	}
}

type proberFunc func(ctx context.Context, index uint64) ProbeResult

func (f proberFunc) Probe(ctx context.Context, index uint64) ProbeResult { return f(ctx, index) }
