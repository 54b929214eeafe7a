package devices

import (
	"errors"
	"io"
	"math/big"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/faults"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

func serverCert(t *testing.T) *certs.Certificate {
	t.Helper()
	k, err := weakrsa.GenerateKey(rand.New(rand.NewSource(17)), weakrsa.Options{Bits: 128})
	if err != nil {
		t.Fatal(err)
	}
	c, err := certs.SelfSigned(big.NewInt(77), certs.Name{CommonName: "system generated"},
		time.Unix(0, 0), time.Unix(1<<40, 0), nil, k.N, k.E, k.D)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func startServer(t *testing.T, s *Server) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return ln.Addr()
}

func dial(t *testing.T, addr net.Addr) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestFetchCertOverTCP(t *testing.T) {
	want := serverCert(t)
	srv := &Server{Cert: want}
	addr := startServer(t, srv)

	conn := dial(t, addr)
	got, err := FetchCert(conn)
	if err != nil {
		t.Fatal(err)
	}
	if got.N.Cmp(want.N) != 0 {
		t.Error("fetched modulus differs")
	}
	if got.Subject != want.Subject {
		t.Error("fetched subject differs")
	}
	if err := got.Verify(nil); err != nil {
		t.Errorf("fetched certificate does not verify: %v", err)
	}
}

func TestRepeatedHandshakesOneConnection(t *testing.T) {
	srv := &Server{Cert: serverCert(t)}
	addr := startServer(t, srv)
	conn := dial(t, addr)
	for i := 0; i < 3; i++ {
		if _, err := FetchCert(conn); err != nil {
			t.Fatalf("handshake %d: %v", i, err)
		}
	}
}

func TestHeartbeatEcho(t *testing.T) {
	srv := &Server{Cert: serverCert(t)}
	addr := startServer(t, srv)
	conn := dial(t, addr)
	if err := ProbeHeartbeat(conn, []byte("ping-payload")); err != nil {
		t.Errorf("patched device should answer heartbeats: %v", err)
	}
	if srv.Crashed() {
		t.Error("patched device should not crash")
	}
}

func TestHeartbeatCrashesVulnerableDevice(t *testing.T) {
	srv := &Server{Cert: serverCert(t), CrashOnHeartbeat: true}
	addr := startServer(t, srv)

	conn := dial(t, addr)
	if err := ProbeHeartbeat(conn, []byte("x")); err == nil {
		t.Error("crash-prone device should fail the probe")
	}
	// Wait for the listener to actually close.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Crashed() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !srv.Crashed() {
		t.Fatal("device did not record the crash")
	}
	// Subsequent scans cannot reach the device: this is how Heartbleed
	// probing removed populations from the scan record.
	c2, err := net.DialTimeout("tcp", addr.String(), time.Second)
	if err == nil {
		c2.SetDeadline(time.Now().Add(2 * time.Second))
		if _, ferr := FetchCert(c2); ferr == nil {
			t.Error("crashed device still served a certificate")
		}
		c2.Close()
	}
}

func TestUnknownMessageHangsUp(t *testing.T) {
	srv := &Server{Cert: serverCert(t)}
	addr := startServer(t, srv)
	conn := dial(t, addr)
	if _, err := conn.Write([]byte("GET / HTTP/1.0\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("server should hang up on unknown protocol")
	}
}

func TestSuitesAdvertised(t *testing.T) {
	srv := &Server{Cert: serverCert(t), Suites: []string{SuiteRSA}}
	addr := startServer(t, srv)
	conn := dial(t, addr)
	cert, suites, err := FetchCertSuites(conn)
	if err != nil {
		t.Fatal(err)
	}
	if cert == nil {
		t.Fatal("no cert")
	}
	if len(suites) != 1 || suites[0] != SuiteRSA {
		t.Errorf("suites: %v", suites)
	}
	if !RSAOnly(suites) {
		t.Error("RSA-only device not recognized")
	}
}

func TestSuitesDefaultBoth(t *testing.T) {
	srv := &Server{Cert: serverCert(t)}
	addr := startServer(t, srv)
	conn := dial(t, addr)
	_, suites, err := FetchCertSuites(conn)
	if err != nil {
		t.Fatal(err)
	}
	if len(suites) != 2 {
		t.Errorf("default suites: %v", suites)
	}
	if RSAOnly(suites) {
		t.Error("dual-suite device misclassified as RSA-only")
	}
}

func TestRSAOnlyClassifier(t *testing.T) {
	cases := []struct {
		suites []string
		want   bool
	}{
		{[]string{SuiteRSA}, true},
		{[]string{SuiteRSA, SuiteECDHE}, false},
		{[]string{SuiteECDHE}, false},
		{nil, false},
		{[]string{""}, false},
	}
	for _, c := range cases {
		if got := RSAOnly(c.suites); got != c.want {
			t.Errorf("RSAOnly(%v) = %v, want %v", c.suites, got, c.want)
		}
	}
}

// --- fault injection ---

func TestFaultRefuseAndReset(t *testing.T) {
	for _, action := range []faults.Action{faults.Refuse, faults.Reset} {
		srv := &Server{Cert: serverCert(t), Faults: faults.NewEveryN(1, action)}
		addr := startServer(t, srv)
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			continue // the RST raced connect() on loopback: fault delivered
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := FetchCert(conn); err == nil {
			t.Errorf("%v: handshake should fail", action)
		}
		conn.Close()
	}
}

func TestFaultStallHitsClientDeadline(t *testing.T) {
	srv := &Server{Cert: serverCert(t), Faults: faults.NewEveryN(1, faults.Stall)}
	addr := startServer(t, srv)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(150 * time.Millisecond))
	_, err = FetchCert(conn)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("stalled handshake error = %v, want timeout", err)
	}
}

func TestFaultTruncateCutsCertificate(t *testing.T) {
	srv := &Server{Cert: serverCert(t), Faults: faults.NewEveryN(1, faults.Truncate)}
	addr := startServer(t, srv)
	conn := dial(t, addr)
	_, err := FetchCert(conn)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated payload error = %v, want unexpected EOF", err)
	}
}

func TestFaultGarbleIsProtocolError(t *testing.T) {
	srv := &Server{Cert: serverCert(t), Faults: faults.NewEveryN(1, faults.Garble)}
	addr := startServer(t, srv)
	conn := dial(t, addr)
	_, err := FetchCert(conn)
	if err == nil || !strings.Contains(err.Error(), "unexpected server response") {
		t.Errorf("garbled hello error = %v, want protocol error", err)
	}
}

func TestFaultEveryOtherConnection(t *testing.T) {
	// Every-2 plan: connection 1 reset, connection 2 served — the shape
	// a second sweep recovers from deterministically.
	srv := &Server{Cert: serverCert(t), Faults: faults.NewEveryN(2, faults.Reset)}
	addr := startServer(t, srv)
	c1 := dial(t, addr)
	if _, err := FetchCert(c1); err == nil {
		t.Error("first connection should be reset")
	}
	c2 := dial(t, addr)
	if _, err := FetchCert(c2); err != nil {
		t.Errorf("second connection should be served: %v", err)
	}
}
