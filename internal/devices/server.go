package devices

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/faults"
)

// The device wire protocol is a deliberately minimal stand-in for the TLS
// handshake the paper's scanners performed: the client sends a hello, the
// server returns its DER certificate. The study only ever needs the
// certificate bytes — exactly like the custom certificate fetchers used by
// the EFF, P&Q and Ecosystem scans. A heartbeat message models the
// Heartbleed-probe behaviour: some real devices (Juniper NetScreen, HP
// iLO) crashed when scanned for Heartbleed, and the simulation reproduces
// that failure mode.
const (
	msgClientHello = "CLIENTHELLO v1"
	msgServerHello = "SERVERHELLO"
	msgHeartbeat   = "HEARTBEAT"
	msgHeartbeatA  = "HEARTBEATACK"
)

// maxCertLen bounds the certificate size a client will accept.
const maxCertLen = 1 << 20

// Cipher-suite families a device can advertise. The study cares about
// one distinction (Section 2.1): a compromised key on a device that only
// supports RSA key exchange allows fully passive decryption; forward-
// secret suites require an active attack.
const (
	SuiteRSA   = "RSA"
	SuiteECDHE = "ECDHE"
)

// Server serves one simulated device's management interface.
type Server struct {
	// Cert is the certificate presented on every handshake.
	Cert *certs.Certificate
	// Suites is the advertised cipher-suite families; nil means both
	// RSA and ECDHE. The paper found 74% of vulnerable devices in the
	// April 2016 scan supported only RSA key exchange.
	Suites []string
	// CrashOnHeartbeat marks firmware that dies when probed with a
	// heartbeat (the Heartbleed-scan crash reports of Section 4.1/4.2).
	CrashOnHeartbeat bool
	// Faults, when set, injects connection-level chaos before the
	// protocol handler runs: refused and reset connections, stalls past
	// the client deadline, truncated or garbled SERVERHELLOs. A nil plan
	// serves every connection normally.
	Faults *faults.Plan

	mu       sync.Mutex
	ln       net.Listener
	crashed  atomic.Bool
	derCache []byte
}

// Serve accepts connections on ln until the listener is closed or the
// device "crashes". It blocks; run it in a goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	der, err := s.Cert.Marshal()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.derCache = der
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.crashed.Load() {
				return nil // crash is an expected termination
			}
			return err
		}
		if a := s.Faults.Next(); a == faults.Pass {
			go s.handle(conn)
		} else {
			go s.injectFault(conn, a)
		}
	}
}

// abortConn closes conn with an RST rather than an orderly FIN, so the
// peer observes a connection reset — what a crashing embedded stack
// produces.
func abortConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
}

// injectFault serves one connection according to a fault decision
// instead of the real protocol handler.
func (s *Server) injectFault(conn net.Conn, a faults.Action) {
	if a == faults.Refuse {
		// Slam the door before reading anything: the client's dial
		// succeeds and its first read fails.
		abortConn(conn)
		return
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	if _, err := r.ReadString('\n'); err != nil {
		return
	}
	switch a {
	case faults.Reset:
		abortConn(conn)
	case faults.Stall:
		// Hold the connection open without answering until the client
		// gives up (its deadline) and closes; the discard read returns
		// on that close.
		io.Copy(io.Discard, r)
	case faults.Truncate:
		s.mu.Lock()
		der := s.derCache
		s.mu.Unlock()
		fmt.Fprintf(conn, "%s %d %s\n", msgServerHello, len(der), SuiteRSA)
		conn.Write(der[:len(der)/2])
	case faults.Garble:
		io.WriteString(conn, "SRVHELO ?garbled?\n")
	}
}

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

// Crashed reports whether a heartbeat probe has taken the device down.
func (s *Server) Crashed() bool { return s.crashed.Load() }

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	for {
		line, err := readLine(r)
		if err != nil {
			return
		}
		switch {
		case line == msgClientHello:
			suites := s.Suites
			if len(suites) == 0 {
				suites = []string{SuiteRSA, SuiteECDHE}
			}
			fmt.Fprintf(conn, "%s %d %s\n", msgServerHello, len(s.derCache), strings.Join(suites, ","))
			if _, err := conn.Write(s.derCache); err != nil {
				return
			}
		case strings.HasPrefix(line, msgHeartbeat+" "):
			if s.CrashOnHeartbeat {
				// The firmware falls over: drop this connection and stop
				// accepting new ones. The device disappears from
				// subsequent scans, which is precisely the population
				// effect visible after April 2014.
				s.crashed.Store(true)
				s.Close()
				return
			}
			n, err := strconv.Atoi(strings.TrimPrefix(line, msgHeartbeat+" "))
			if err != nil || n < 0 || n > 4096 {
				return
			}
			// A correct implementation echoes exactly the declared
			// length — no overread.
			payload := make([]byte, n)
			if _, err := io.ReadFull(r, payload); err != nil {
				return
			}
			fmt.Fprintf(conn, "%s %d\n", msgHeartbeatA, n)
			if _, err := conn.Write(payload); err != nil {
				return
			}
		default:
			return // unknown message: hang up, as embedded stacks do
		}
	}
}

// FetchCertSuites performs the client side of the handshake over an
// established connection and returns the parsed certificate and the
// cipher-suite families the server advertised.
func FetchCertSuites(conn io.ReadWriter) (*certs.Certificate, []string, error) {
	if _, err := io.WriteString(conn, msgClientHello+"\n"); err != nil {
		return nil, nil, err
	}
	r := bufio.NewReader(conn)
	header, err := readLine(r)
	if err != nil {
		return nil, nil, err
	}
	fields := strings.Fields(header)
	if len(fields) < 2 || fields[0] != msgServerHello {
		return nil, nil, fmt.Errorf("devices: unexpected server response %q", header)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n <= 0 || n > maxCertLen {
		return nil, nil, errors.New("devices: bad certificate length")
	}
	var suites []string
	if len(fields) >= 3 {
		suites = strings.Split(fields[2], ",")
	}
	der := make([]byte, n)
	if _, err := io.ReadFull(r, der); err != nil {
		return nil, nil, err
	}
	c, err := certs.Parse(der)
	if err != nil {
		return nil, nil, err
	}
	return c, suites, nil
}

// RSAOnly reports whether a suite list contains RSA key exchange and no
// forward-secret alternative.
func RSAOnly(suites []string) bool {
	hasRSA, hasOther := false, false
	for _, s := range suites {
		if s == SuiteRSA {
			hasRSA = true
		} else if s != "" {
			hasOther = true
		}
	}
	return hasRSA && !hasOther
}

// ProbeHeartbeat sends a heartbeat with the given payload and reports
// whether the device answered correctly. An error or short read means the
// device dropped the connection (possibly crashing, as vulnerable
// firmware did when Heartbleed-scanned).
func ProbeHeartbeat(conn io.ReadWriter, payload []byte) error {
	if _, err := fmt.Fprintf(conn, "%s %d\n", msgHeartbeat, len(payload)); err != nil {
		return err
	}
	if _, err := conn.Write(payload); err != nil {
		return err
	}
	r := bufio.NewReader(conn)
	header, err := readLine(r)
	if err != nil {
		return err
	}
	want := fmt.Sprintf("%s %d", msgHeartbeatA, len(payload))
	if header != want {
		return fmt.Errorf("devices: heartbeat response %q, want %q", header, want)
	}
	echo := make([]byte, len(payload))
	if _, err := io.ReadFull(r, echo); err != nil {
		return err
	}
	if string(echo) != string(payload) {
		return errors.New("devices: heartbeat echo mismatch")
	}
	return nil
}

// readLine reads one protocol line, without its line ending, through r's
// fixed buffer: a peer that sends no newline costs one buffer, not as
// much memory as it can send before the deadline, and a line longer than
// the buffer is bufio.ErrBufferFull.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(string(line), "\r\n"), nil
}
