// Command batchgcd factors RSA moduli that share prime factors. It reads
// one hexadecimal modulus per line from a file (or stdin), runs the batch
// GCD — the quasilinear single-tree algorithm, or the paper's k-subset
// cluster-partitioned variant — and prints each vulnerable modulus with
// its recovered factors.
//
//	batchgcd -k 16 moduli.hex
//	weakkeys-generated corpora, openssl-exported moduli, etc.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"strings"
	"time"

	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/distgcd"
	"github.com/factorable/weakkeys/internal/sshkeys"
	"github.com/factorable/weakkeys/internal/telemetry"
)

func main() {
	var (
		k       = flag.Int("k", 1, "number of subsets (>=2 runs the cluster-partitioned variant)")
		stats   = flag.Bool("stats", false, "print timing and memory statistics")
		listen  = flag.String("listen", "", "serve live diagnostics on this address (/metrics, /debug/vars, /debug/pprof)")
		metrics = flag.Bool("metrics", false, "dump the final metrics snapshot (Prometheus text format) to stderr")
	)
	flag.Parse()

	reg := telemetry.New()
	if *listen != "" {
		srv, err := telemetry.ListenAndServe(*listen, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "diagnostics on http://%s/metrics\n", srv.Addr)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	moduli, err := readModuli(in)
	if err != nil {
		fatal(err)
	}
	if len(moduli) == 0 {
		fatal(fmt.Errorf("no moduli on input"))
	}

	start := time.Now()
	var results []batchgcd.Result
	var runStats distgcd.Stats
	if *k >= 2 {
		results, runStats, err = distgcd.Run(context.Background(), moduli, distgcd.Options{Subsets: *k, Metrics: reg})
	} else {
		results, err = batchgcd.Factor(moduli)
	}
	if err != nil {
		fatal(err)
	}
	vulnerable, divisors := make([]*big.Int, len(results)), make([]*big.Int, len(results))
	for i, r := range results {
		vulnerable[i], divisors[i] = moduli[r.Index], r.Divisor
	}
	for i, s := range batchgcd.Splits(vulnerable, divisors, nil, nil) {
		if s == nil {
			// Nothing splits it: report the divisor only.
			fmt.Printf("%d vulnerable divisor=%x\n", results[i].Index, results[i].Divisor)
			continue
		}
		fmt.Printf("%d vulnerable p=%x q=%x\n", results[i].Index, s.P, s.Q)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "factored %d of %d moduli in %v\n",
			len(results), len(moduli), time.Since(start).Round(time.Millisecond))
		if *k >= 2 {
			fmt.Fprintf(os.Stderr, "k=%d: total CPU %v, peak per-node tree %d bytes\n",
				runStats.Subsets, runStats.CPU.Round(time.Millisecond), runStats.Bytes)
		}
	}
	if *metrics {
		reg.Snapshot().WritePrometheus(os.Stderr)
	}
}

// readModuli parses the input as PEM modulus blocks (cmd/keygen -format
// pem) when it starts with a PEM header, otherwise as one hex modulus per
// line; blank lines and #-comments are skipped.
func readModuli(r io.Reader) ([]*big.Int, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(strings.TrimSpace(string(data)), "-----BEGIN") {
		return certs.ParseModulusPEMs(data)
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []*big.Int
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// authorized_keys / known_hosts style ssh-rsa lines.
		if strings.HasPrefix(line, sshkeys.KeyType+" ") {
			key, _, err := sshkeys.ParseAuthorizedKey(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			out = append(out, key.N)
			continue
		}
		line = strings.TrimPrefix(line, "0x")
		// keygen -private lines carry "N p=... q=..."; use field one.
		if i := strings.IndexByte(line, ' '); i > 0 {
			line = line[:i]
		}
		n, ok := new(big.Int).SetString(line, 16)
		if !ok || n.Sign() <= 0 {
			return nil, fmt.Errorf("line %d: not a hex modulus", lineNo)
		}
		out = append(out, n)
	}
	return out, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "batchgcd:", err)
	os.Exit(1)
}
