// Package e2e holds the checks only real processes can make: flags,
// startup lines, signals, files on disk and two binaries talking over a
// socket. TestMain builds every cmd/ and examples/ binary once; what an
// in-process suite already asserts is not repeated here.
package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/factorable/weakkeys/internal/cluster"
)

// deadline bounds every wait; `make race` runs this package beside the CPU-heavy ones.
const deadline = 90 * time.Second

var bin string // directory holding the built binaries

func TestMain(m *testing.M) {
	var err error
	if bin, err = os.MkdirTemp("", "weakkeys-e2e-"); err == nil {
		build := exec.Command("go", "build", "-o", bin, "../cmd/...", "../examples/...")
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		err = build.Run()
	}
	code := 1
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e: building the binaries:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(bin)
	os.Exit(code)
}

// TestSourcesAreInputs: the test cache keys a result on the files the running tests touch, not on
// what TestMain's `go build` read, so touch every source the binaries are built from.
func TestSourcesAreInputs(t *testing.T) {
	for _, dir := range []string{"../go.mod", "../cmd", "../examples", "../internal"} {
		filepath.WalkDir(dir, func(path string, _ fs.DirEntry, _ error) error { os.Stat(path); return nil })
	}
}

// output is a child's stdout or stderr, readable while the child runs.
type output struct {
	sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) { o.Lock(); defer o.Unlock(); return o.buf.Write(p) }
func (o *output) String() string              { o.Lock(); defer o.Unlock(); return o.buf.String() }

type proc struct { // one child process
	t              *testing.T
	cmd            *exec.Cmd
	stdout, stderr output
	done           chan struct{} // closed once the child has been reaped
}

// start launches a built binary; cleanup kills it, and prints its stderr if the test failed.
func start(t *testing.T, name string, args ...string) *proc {
	p := &proc{t: t, cmd: exec.Command(filepath.Join(bin, name), args...), done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = &p.stdout, &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.cmd.Wait(); close(p.done) }()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.done
		if t.Failed() {
			t.Logf("%s %s: stderr:\n%s", name, strings.Join(args, " "), p.stderr.String())
		}
	})
	return p
}

// poll waits until ok reports true; the child exiting first, or the
// deadline passing, fails the test.
func (p *proc) poll(what string, ok func() bool) {
	p.t.Helper()
	for end := time.Now().Add(deadline); !ok(); time.Sleep(10 * time.Millisecond) {
		select {
		case <-p.done:
			if !ok() {
				p.t.Fatalf("%s exited (%v) before %s", p.cmd.Path, p.cmd.ProcessState, what)
			}
			return
		default:
			if time.Now().After(end) {
				p.t.Fatalf("%s: no %s within %v", p.cmd.Path, what, deadline)
			}
		}
	}
}

// waitLog waits for stderr to match re and returns the last capture
// group — how a test learns the address a daemon bound.
func (p *proc) waitLog(re string) string {
	p.t.Helper()
	rx, m := regexp.MustCompile(re), []string(nil)
	p.poll("log line /"+re+"/", func() bool { m = rx.FindStringSubmatch(p.stderr.String()); return m != nil })
	return m[len(m)-1]
}

func (p *proc) waitReady(url string) { // waits for a 200
	p.t.Helper()
	p.poll("200 from "+url, func() bool {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
		}
		return err == nil && resp.StatusCode == http.StatusOK
	})
}

// run runs a built binary to completion with in on its stdin.
func run(in, name string, args ...string) (stdout, stderr string, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	var out, errOut strings.Builder
	cmd := exec.CommandContext(ctx, filepath.Join(bin, name), args...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = strings.NewReader(in), &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// call makes one HTTP request (a POST when body is not empty; header
// holds name, value pairs), insists on a 200, decodes its JSON into
// `into` unless that is nil, and returns the raw reply.
func call(t *testing.T, url, body string, into any, header ...string) []byte {
	t.Helper()
	method := http.MethodGet
	if body != "" {
		method = http.MethodPost
	}
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || (into != nil && json.Unmarshal(raw, into) != nil) {
		t.Fatalf("%s %s %s: HTTP %d, %v: %s", method, url, body, resp.StatusCode, err, raw)
	}
	return raw
}

// check asks a keyserverd or keyrouter about one modulus (a replica's verdict decodes into the router's superset).
func check(t *testing.T, base, modulusHex, more string) (v cluster.RoutedVerdict) {
	t.Helper()
	call(t, base+"/v1/check", fmt.Sprintf(`{"modulus_hex":%q%s}`, modulusHex, more), &v)
	return v
}

// exemplars fetches the known-answer corpus keys a server hands out.
func exemplars(t *testing.T, base string) (ex struct{ Factored, Clean, Shared []string }) {
	t.Helper()
	if call(t, base+"/v1/exemplars?n=4", "", &ex); len(ex.Factored) == 0 || len(ex.Clean) == 0 {
		t.Fatalf("no factored or no clean exemplar: %+v", ex)
	}
	return ex
}

// metric sums the samples whose name starts with prefix in a scrape of
// base/metrics; counted fails the test for each name that sums to 0.
func metric(t *testing.T, base, prefix string) (sum float64) {
	t.Helper()
	for _, line := range strings.Split(string(call(t, base+"/metrics", "", nil)), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && strings.HasPrefix(line, prefix) {
			var v float64
			fmt.Sscan(line[i+1:], &v)
			sum += v
		}
	}
	return sum
}

func counted(t *testing.T, base string, names ...string) {
	t.Helper()
	for _, name := range names {
		if metric(t, base, name) == 0 {
			t.Errorf("%s/metrics counts no %s", base, name)
		}
	}
}

// reservePorts returns n distinct free loopback addresses, for servers
// that must be told each other's before any binds. They come from below
// the ephemeral range, so nothing that dials or listens on :0 beside
// this test can take one first.
func reservePorts(t *testing.T, n int) (addrs []string) {
	for port := 20000 + rand.Intn(10000); len(addrs) < n && port < 32000; port++ {
		if ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port)); err == nil {
			defer ln.Close() // held until all n are chosen, so none repeats
			addrs = append(addrs, ln.Addr().String())
		}
	}
	if len(addrs) < n {
		t.Fatalf("only %d of %d ports free", len(addrs), n)
	}
	return addrs
}
