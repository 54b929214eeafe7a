// Command keygen generates RSA key corpora with a configurable weak
// fraction, for feeding cmd/batchgcd or external tools. Weak keys are
// produced through the same shared-prime cohort machinery the ecosystem
// simulator uses, so a corpus's weak subset is genuinely factorable by
// batch GCD.
//
//	keygen -n 1000 -weak 0.02 -bits 512        # hex, one modulus per line
//	keygen -n 100 -format pem > corpus.pem
//	keygen -n 100 -private                     # also prints p and q
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/population"
	"github.com/factorable/weakkeys/internal/sshkeys"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

func main() {
	var (
		n       = flag.Int("n", 100, "number of keys")
		weak    = flag.Float64("weak", 0.02, "fraction of keys drawn from shared-prime cohorts")
		bits    = flag.Int("bits", 512, "modulus size")
		seed    = flag.Int64("seed", 0, "deterministic seed (0 = time-based)")
		format  = flag.String("format", "hex", "output format: hex, pem or ssh")
		gen     = flag.String("gen", "openssl", "prime generation style for weak keys: openssl, naive")
		private = flag.Bool("private", false, "emit p and q alongside each modulus (hex format only)")
	)
	flag.Parse()
	if *weak < 0 || *weak > 1 {
		fatal(fmt.Errorf("weak fraction must be in [0,1]"))
	}
	var style weakrsa.PrimeGen
	switch *gen {
	case "openssl":
		style = weakrsa.PrimeOpenSSL
	case "naive":
		style = weakrsa.PrimeNaive
	default:
		fatal(fmt.Errorf("unknown -gen %q", *gen))
	}
	s := *seed
	if s == 0 {
		s = time.Now().UnixNano()
	}
	factory := population.NewKeyFactory(s, *bits)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	weakEvery := 0
	if *weak > 0 {
		weakEvery = int(1 / *weak)
	}
	for i := 0; i < *n; i++ {
		var key *weakrsa.PrivateKey
		var err error
		if weakEvery > 0 && i%weakEvery == 0 {
			key, err = factory.SharedPrime("keygen", style)
		} else {
			key, err = factory.Healthy()
		}
		if err != nil {
			fatal(err)
		}
		switch *format {
		case "hex":
			if *private {
				fmt.Fprintf(out, "%x p=%x q=%x\n", key.N, key.P, key.Q)
			} else {
				fmt.Fprintf(out, "%x\n", key.N)
			}
		case "pem":
			if err := certs.EncodeModulusPEM(out, key.N); err != nil {
				fatal(err)
			}
		case "ssh":
			pub := sshkeys.PublicKey{E: key.E, N: key.N}
			if _, err := out.WriteString(pub.MarshalAuthorizedKey(fmt.Sprintf("host-%06d", i))); err != nil {
				fatal(err)
			}
		default:
			fatal(fmt.Errorf("unknown -format %q", *format))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "keygen:", err)
	os.Exit(1)
}
