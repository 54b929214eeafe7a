// Command keyload drives concurrent check traffic against a running
// keyserverd or keyrouter and reports throughput and latency
// percentiles — a load generator standing in for the "millions of
// users" load the deployed factorable.net service absorbed. (Speed is
// judged on bench/'s serve_cold and routed_hot workloads, not here.)
//
// The request mix is drawn from the server's own exemplars (known
// factored and known clean corpus keys) plus freshly generated novel
// moduli that exercise the GCD path:
//
// Transient transport failures (dial refused, connection reset,
// timeout) and backpressure statuses (503/502/504/429) are retried with
// per-worker exponential backoff when -retries is set — the chaos
// harness drives a cluster through a replica SIGKILL and still expects
// zero lost verdicts.
//
//	keyload -addr 127.0.0.1:8446 -c 16 -duration 10s
//	keyload -addr 127.0.0.1:9000 -retries 8 -json chaos.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/factorable/weakkeys/internal/retry"
)

type exemplars struct {
	Factored []string `json:"factored"`
	Clean    []string `json:"clean"`
}

type verdict struct {
	Status string `json:"status"`
}

// result is the machine-readable run document (-json).
type result struct {
	Concurrency int `json:"concurrency"`
	Checks      int `json:"checks"`
	Errors      int `json:"errors"`
	// Retries counts extra attempts spent recovering checks; a check
	// that eventually succeeded is not an error no matter how many
	// attempts it took. TransportErrors counts attempts that failed
	// before an HTTP status arrived (dial refused, reset, timeout).
	Retries         int            `json:"retries"`
	TransportErrors int            `json:"transport_errors"`
	Seconds         float64        `json:"seconds"`
	ChecksPerSec    float64        `json:"checks_per_sec"`
	P50Ms           float64        `json:"p50_ms"`
	P90Ms           float64        `json:"p90_ms"`
	P99Ms           float64        `json:"p99_ms"`
	MaxMs           float64        `json:"max_ms"`
	Verdicts        map[string]int `json:"verdicts"`
	HTTPCodes       map[int]int    `json:"-"`
	HTTPCodeStr     map[string]int `json:"http_codes"`
	// DroppedRequestIDs samples the X-Request-Id headers of responses
	// that carried no verdict so a failed run can be cross-referenced
	// against the server's /debug/events?request_id= view.
	DroppedRequestIDs []string `json:"dropped_request_ids,omitempty"`
}

// maxDroppedIDs bounds the per-run sample of failed-request IDs.
const maxDroppedIDs = 16

// worker is one client goroutine's private tally.
type worker struct {
	lat           []time.Duration
	verdicts      map[string]int
	codes         map[int]int
	dropped       []string
	errs          int
	checks        int
	retries       int
	transportErrs int
}

// record books the final response of one check and closes its body. A
// verdict is a 200 whose body decodes to a non-empty status; anything
// else is an error — including a 200 with a torn body, which is what a
// replica SIGKILLed mid-response leaves behind — and its request ID is
// sampled.
func (wk *worker) record(resp *http.Response, lat time.Duration) {
	defer resp.Body.Close()
	wk.codes[resp.StatusCode]++
	if resp.StatusCode == http.StatusOK {
		var v verdict
		if err := json.NewDecoder(resp.Body).Decode(&v); err == nil && v.Status != "" {
			wk.verdicts[v.Status]++
			wk.lat = append(wk.lat, lat)
			return
		}
	}
	wk.errs++
	if id := resp.Header.Get("X-Request-Id"); id != "" && len(wk.dropped) < maxDroppedIDs {
		wk.dropped = append(wk.dropped, fmt.Sprintf("%d:%s", resp.StatusCode, id))
	}
	io.Copy(io.Discard, resp.Body)
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8446", "keyserverd address")
		conc      = flag.Int("c", 16, "concurrent clients")
		duration  = flag.Duration("duration", 5*time.Second, "how long to drive load")
		weakFrac  = flag.Float64("weak-frac", 0.3, "fraction of requests submitting known-factored keys")
		novelFrac = flag.Float64("novel-frac", 0.3, "fraction of requests submitting novel (never-scanned) moduli")
		bits      = flag.Int("bits", 128, "bit size of generated novel moduli")
		seed      = flag.Int64("seed", 1, "novel-modulus generation seed")
		jsonOut   = flag.String("json", "", "write the benchmark result as JSON to this file")
		quiet     = flag.Bool("q", false, "suppress the text report")
		retries   = flag.Int("retries", 0, "retry a failed check up to this many times (transient transport errors and 5xx/429 backpressure)")
		retryWait = flag.Duration("retry-backoff", 25*time.Millisecond, "first retry delay, doubled per attempt")
	)
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "keyload:", err)
		os.Exit(1)
	}

	base := "http://" + *addr
	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        *conc * 2,
			MaxIdleConnsPerHost: *conc * 2,
		},
	}

	ex, err := fetchExemplars(client, base)
	if err != nil {
		fatal(fmt.Errorf("fetching exemplars (is keyserverd up at %s?): %w", *addr, err))
	}
	if len(ex.Factored) == 0 || len(ex.Clean) == 0 {
		fatal(fmt.Errorf("server returned %d factored / %d clean exemplars; need both",
			len(ex.Factored), len(ex.Clean)))
	}

	// The request pool: weak and clean keys straight from the corpus,
	// novel moduli generated locally. Repeats are intentional — the
	// serving workload is heavy-tailed and the verdict cache should see
	// hits, like the real service would.
	novel := genNovel(*seed, *bits, 64)

	// retriable statuses are the backpressure family: the server (or the
	// cluster router fronting it) said "not right now", not "no".
	retriable := func(code int) bool {
		switch code {
		case http.StatusServiceUnavailable, http.StatusTooManyRequests,
			http.StatusBadGateway, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	workers := make([]worker, *conc)
	deadline := time.Now().Add(*duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
			wk := &workers[w]
			wk.verdicts = make(map[string]int)
			wk.codes = make(map[int]int)
			for time.Now().Before(deadline) {
				var hex string
				switch u := rng.Float64(); {
				case u < *weakFrac:
					hex = ex.Factored[rng.Intn(len(ex.Factored))]
				case u < *weakFrac+*novelFrac:
					hex = novel[rng.Intn(len(novel))]
				default:
					hex = ex.Clean[rng.Intn(len(ex.Clean))]
				}
				body, _ := json.Marshal(map[string]string{"modulus_hex": hex})
				wk.checks++
				// One logical check; up to -retries extra attempts chase
				// transient weather (a dial refused during a replica
				// restart, a reset from a SIGKILLed peer, backpressure).
				var resp *http.Response
				var err error
				var lat time.Duration
				backoff := *retryWait
				for attempt := 0; ; attempt++ {
					if attempt > 0 {
						wk.retries++
						time.Sleep(backoff)
						backoff *= 2
					}
					t0 := time.Now()
					resp, err = client.Post(base+"/v1/check", "application/json", bytes.NewReader(body))
					lat = time.Since(t0)
					if err != nil {
						wk.transportErrs++
						if attempt < *retries && retry.Transient(err) {
							continue
						}
						break
					}
					if attempt < *retries && retriable(resp.StatusCode) {
						wk.codes[resp.StatusCode]++
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						continue
					}
					break
				}
				if err != nil {
					wk.errs++
					continue
				}
				wk.record(resp, lat)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := result{
		Concurrency: *conc,
		Seconds:     elapsed.Seconds(),
		Verdicts:    make(map[string]int),
		HTTPCodes:   make(map[int]int),
	}
	var lats []time.Duration
	for i := range workers {
		wk := &workers[i]
		res.Checks += wk.checks
		res.Errors += wk.errs
		res.Retries += wk.retries
		res.TransportErrors += wk.transportErrs
		lats = append(lats, wk.lat...)
		for k, v := range wk.verdicts {
			res.Verdicts[k] += v
		}
		for k, v := range wk.codes {
			res.HTTPCodes[k] += v
		}
		for _, id := range wk.dropped {
			if len(res.DroppedRequestIDs) < maxDroppedIDs {
				res.DroppedRequestIDs = append(res.DroppedRequestIDs, id)
			}
		}
	}
	res.ChecksPerSec = float64(res.Checks) / elapsed.Seconds()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if len(lats) > 0 {
		res.P50Ms = ms(percentile(lats, 0.50))
		res.P90Ms = ms(percentile(lats, 0.90))
		res.P99Ms = ms(percentile(lats, 0.99))
		res.MaxMs = ms(lats[len(lats)-1])
	}
	res.HTTPCodeStr = make(map[string]int)
	for k, v := range res.HTTPCodes {
		res.HTTPCodeStr[fmt.Sprint(k)] = v
	}

	if !*quiet {
		fmt.Printf("keyload: %d checks in %v (%.0f checks/sec, %d clients)\n",
			res.Checks, elapsed.Round(time.Millisecond), res.ChecksPerSec, *conc)
		fmt.Printf("latency: p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n",
			res.P50Ms, res.P90Ms, res.P99Ms, res.MaxMs)
		fmt.Printf("verdicts: factored %d, shared_factor %d, clean %d; errors %d (retries %d, transport errors %d)\n",
			res.Verdicts["factored"], res.Verdicts["shared_factor"], res.Verdicts["clean"],
			res.Errors, res.Retries, res.TransportErrors)
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Printf("wrote %s\n", *jsonOut)
		}
	}
	if res.Checks == 0 || res.Checks == res.Errors {
		fatal(fmt.Errorf("no successful checks completed"))
	}
}

func fetchExemplars(client *http.Client, base string) (*exemplars, error) {
	resp, err := client.Get(base + "/v1/exemplars?n=64")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("exemplars: HTTP %d", resp.StatusCode)
	}
	var ex exemplars
	if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil {
		return nil, err
	}
	return &ex, nil
}

// genNovel produces n random odd moduli-shaped integers that no scan
// ever observed — each check walks the full GCD path (and then hits the
// verdict cache on repeats).
func genNovel(seed int64, bits, n int) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x6b65796c6f6164)) // "keyload"
	out := make([]string, n)
	for i := range out {
		v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		v.SetBit(v, bits-1, 1)
		v.SetBit(v, 0, 1)
		out[i] = v.Text(16)
	}
	return out
}

// percentile returns the p-quantile of sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
