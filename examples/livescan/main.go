// Livescan exercises the real-network pipeline end to end on loopback: a
// fleet of simulated device HTTPS-management interfaces (Juniper-style
// "CN=system generated" certificates, a Fritz!Box cohort, healthy
// devices), two zscan sweeps over real TCP connections, the batch GCD,
// and the fingerprint pipeline that attributes the factored keys to
// vendors. The sweeps send a Heartbleed probe after each certificate
// fetch and the pooled Juniper pair runs crash-prone firmware, so the
// second sweep finds those two devices gone — the population effect the
// paper saw after April 2014.
//
//	go run ./examples/livescan
package main

import (
	"context"
	"fmt"
	"log"
	"math/big"
	"net"
	"time"

	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/devices"
	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/population"
	"github.com/factorable/weakkeys/internal/retry"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/weakrsa"
	"github.com/factorable/weakkeys/internal/zscan"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("livescan: ")

	factory := population.NewKeyFactory(7, 256)
	type spec struct {
		profile devices.Profile
		pool    string // "" = healthy
		gen     weakrsa.PrimeGen
	}
	fleet := []spec{
		{devices.ProfileJuniper, "juniper", weakrsa.PrimeNaive},
		{devices.ProfileJuniper, "juniper", weakrsa.PrimeNaive},
		{devices.ProfileJuniper, "", weakrsa.PrimeNaive},
		{devices.ProfileFritzBox, "fritz", weakrsa.PrimeOpenSSL},
		{devices.ProfileFritzBoxIPOnly, "fritz", weakrsa.PrimeOpenSSL},
		{devices.ProfileHP, "", weakrsa.PrimeOpenSSL},
		{devices.ProfileMcAfee, "", weakrsa.PrimeOpenSSL},
	}

	var targets []string
	var servers []*devices.Server
	for i, d := range fleet {
		var key *weakrsa.PrivateKey
		var err error
		if d.pool != "" {
			key, err = factory.SharedPrime(d.pool, d.gen)
		} else {
			key, err = factory.Healthy()
		}
		if err != nil {
			log.Fatal(err)
		}
		id := devices.Identity{IP: fmt.Sprintf("127.0.0.%d", i+1), Serial: int64(i + 1), Model: d.profile.Model}
		var sans []string
		if d.profile.DNSNames != nil {
			sans = d.profile.DNSNames(id)
		}
		cert, err := certs.SelfSigned(big.NewInt(int64(i+1)), d.profile.Subject(id),
			time.Now(), time.Now().AddDate(10, 0, 0), sans, key.N, key.E, key.D)
		if err != nil {
			log.Fatal(err)
		}
		// The entropy-starved Juniper build is also the one that falls
		// over when Heartbleed-scanned.
		srv := &devices.Server{Cert: cert, CrashOnHeartbeat: d.pool == "juniper"}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go srv.Serve(ln)
		servers = append(servers, srv)
		targets = append(targets, ln.Addr().String())
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	// Sweep the fleet twice over real TCP connections into the store:
	// the host list is the address space.
	store := scanstore.New()
	eng, err := zscan.New(zscan.Options{
		Space: uint64(len(targets)), Seed: 7, Cycles: 2, Workers: 4, Store: store,
		Prober: &zscan.TCPProber{Heartbeat: true, Addr: func(i uint64) (string, bool) {
			return targets[i], true
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scanned %d devices twice, stored %d observations\n", len(targets), rep.Stored)
	crashed := 0
	for _, s := range servers {
		if s.Crashed() {
			crashed++
		}
	}
	fmt.Printf("heartbeat probing took %d devices offline; %d refused the second sweep\n",
		crashed, rep.Errors[retry.CauseRefused])

	// Factor and fingerprint.
	moduli, keys := store.DistinctModuli()
	factored, err := batchgcd.Factor(moduli)
	if err != nil {
		log.Fatal(err)
	}
	divisors := make(map[string]*big.Int)
	for _, r := range factored {
		divisors[keys[r.Index]] = r.Divisor
	}
	res := fingerprint.Analyze(fingerprint.Input{
		Certs:       store.DistinctCerts(),
		Divisors:    divisors,
		ModulusBits: 256,
	})

	fmt.Printf("batch GCD factored %d of %d distinct moduli\n\n", len(divisors), len(moduli))
	for _, c := range store.DistinctCerts() {
		fp, err := c.Fingerprint()
		if err != nil {
			continue
		}
		lbl, ok := res.Labels[fp]
		vendor := "(unlabeled)"
		if ok {
			vendor = fmt.Sprintf("%s via %s", lbl.Vendor, lbl.Method)
		}
		_, vuln := res.Factors[c.ModulusKey()]
		fmt.Printf("  serial %-3v subject %-40q -> %-28s vulnerable=%v\n",
			c.SerialNumber, c.Subject.String(), vendor, vuln)
	}
	fmt.Println("\nnote the IP-only certificate: no vendor in its subject, attributed via its shared prime.")
}
