package devices

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/faults"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

func serverCert(t testing.TB) *certs.Certificate {
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

// fetchCert is FetchCertSuites without the suites.
func fetchCert(conn io.ReadWriter) (*certs.Certificate, error) {
	c, _, err := FetchCertSuites(conn)
	return c, err
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
	got, err := fetchCert(conn)
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
		if _, err := fetchCert(conn); err != nil {
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
		if _, ferr := fetchCert(c2); ferr == nil {
			t.Error("crashed device still served a certificate")
		}
		c2.Close()
	}
}

// countingReader counts the bytes a parser takes from a peer.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestHandshakeHeaderIsBounded sends 1 MiB with no newline where each
// client expects its header line: the read must fail with
// bufio.ErrBufferFull after one buffer, not take the whole megabyte.
func TestHandshakeHeaderIsBounded(t *testing.T) {
	for name, read := range map[string]func(io.ReadWriter) error{
		"FetchCertSuites": func(conn io.ReadWriter) error { _, _, err := FetchCertSuites(conn); return err },
		"ProbeHeartbeat":  func(conn io.ReadWriter) error { return ProbeHeartbeat(conn, []byte("x")) },
	} {
		peer := &countingReader{r: bytes.NewReader(bytes.Repeat([]byte("A"), 1<<20))}
		err := read(struct {
			io.Reader
			io.Writer
		}{peer, io.Discard})
		if !errors.Is(err, bufio.ErrBufferFull) {
			t.Errorf("%s: header with no newline: error %v, want bufio.ErrBufferFull", name, err)
		}
		if peer.n > 64<<10 {
			t.Errorf("%s: read %d bytes of a header with no newline", name, peer.n)
		}
	}
}

// FuzzFetchCertSuites feeds arbitrary server replies to the scanner's
// handshake parser, the one parser of bytes a scanned host chooses. It
// must not panic, and a certificate it accepts must re-marshal to the DER
// it read.
func FuzzFetchCertSuites(f *testing.F) {
	der, err := serverCert(f).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	hello := fmt.Appendf(nil, "%s %d %s,%s\n", msgServerHello, len(der), SuiteRSA, SuiteECDHE)
	f.Add(append(hello, der...))
	f.Add(append(fmt.Appendf(nil, "%s %d\r\n", msgServerHello, len(der)), der...))
	f.Add(hello)
	f.Add([]byte(msgServerHello + " 0\n"))
	f.Add([]byte(msgServerHello + " 99999999999999999999\n"))
	f.Add([]byte("HTTP/1.0 400 Bad Request\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, _, err := FetchCertSuites(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), io.Discard})
		if err != nil {
			return
		}
		header, rest, _ := bytes.Cut(data, []byte("\n"))
		n, _ := strconv.Atoi(strings.Fields(string(header))[1])
		got, err := c.Marshal()
		if err != nil {
			t.Fatalf("accepted certificate does not re-marshal: %v", err)
		}
		if !bytes.Equal(got, rest[:n]) {
			t.Fatalf("accepted certificate re-marshals to %x, read %x", got, rest[:n])
		}
	})
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
		if _, err := fetchCert(conn); err == nil {
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
	_, err = fetchCert(conn)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("stalled handshake error = %v, want timeout", err)
	}
}

func TestFaultTruncateCutsCertificate(t *testing.T) {
	srv := &Server{Cert: serverCert(t), Faults: faults.NewEveryN(1, faults.Truncate)}
	addr := startServer(t, srv)
	conn := dial(t, addr)
	_, err := fetchCert(conn)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated payload error = %v, want unexpected EOF", err)
	}
}

func TestFaultGarbleIsProtocolError(t *testing.T) {
	srv := &Server{Cert: serverCert(t), Faults: faults.NewEveryN(1, faults.Garble)}
	addr := startServer(t, srv)
	conn := dial(t, addr)
	_, err := fetchCert(conn)
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
	if _, err := fetchCert(c1); err == nil {
		t.Error("first connection should be reset")
	}
	c2 := dial(t, addr)
	if _, err := fetchCert(c2); err != nil {
		t.Errorf("second connection should be served: %v", err)
	}
}
