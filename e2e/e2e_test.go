package e2e

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"github.com/factorable/weakkeys/internal/cluster"
	"github.com/factorable/weakkeys/internal/keycheck"
	"github.com/factorable/weakkeys/internal/zscan"
)

// TestStudy: a weakkeys run with -listen, -trace and -metrics serves a scrape fed by every layer
// and leaves a span trace on disk; a second run on a single tree (-subsets 1) prints the k=3 run's
// table, byte for byte.
func TestStudy(t *testing.T) {
	t.Parallel()
	study := []string{"-scale", "0.05", "-bits", "128", "-subsets", "3", "-table", "1"}
	trace := filepath.Join(t.TempDir(), "trace.json")
	// -hold keeps /metrics up after the run; "holding" is logged once
	// all of stdout and the trace file are written.
	clean := start(t, "weakkeys", append(study, "-listen", "127.0.0.1:0", "-hold", "5m", "-trace", trace, "-metrics")...)
	base := clean.waitLog(`diagnostics on (http://[^/]+)/metrics`)
	clean.waitLog(`holding diagnostics server`)
	counted(t, base, "pipeline_stages_completed_total", "population_months_done", "distgcd_moduli", "core_runs_total")
	var doc struct{ TraceEvents []struct{ Name string } }
	if raw, err := os.ReadFile(trace); err != nil || json.Unmarshal(raw, &doc) != nil {
		t.Fatalf("-trace file is not JSON (%v):\n%s", err, raw)
	}
	spans := fmt.Sprint(doc.TraceEvents) // [{pipeline} {Simulate} ...]
	report, table, _ := strings.Cut(clean.stdout.String(), "Table 1")
	if !strings.Contains(spans, "{pipeline}") || !strings.Contains(spans, "{node0.build}") || !strings.Contains(report, "rate") {
		t.Errorf("-trace lacks the pipeline or a per-node span (%d events), or -metrics its rate column:\n%s", len(doc.TraceEvents), report)
	}

	out, errOut, err := run("", "weakkeys", append(study, "-subsets", "1")...)
	if err != nil || table == "" || out != "Table 1"+table {
		t.Errorf("study on a single tree: %v\n%s%s\nwant the k=3 run's:\nTable 1%s", err, errOut, out, table)
	}
}

// TestOneShot covers the binaries that run to completion: each example's headline claim, README's
// keygen | batchgcd quickstart in each corpus format, and bad invocations, which must name the
// mistake, exit non-zero and never get as far as binding a listener.
func TestOneShot(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct { // keygen: the arguments of a keygen piped into stdin
		bin, args, want, keygen string
		bad                     bool
	}{
		{bin: "quickstart", want: "Vulnerable RSA moduli"},
		{bin: "entropyhole", want: "decrypted RSA ciphertext with the recovered key: 0x5e55104cafe (want 0x5e55104cafe)"},
		{bin: "clusterfactor", want: "all algorithms agree on the vulnerable set."},
		{bin: "passivedecrypt", want: "USER admin PASS swordfish-42"},
		{bin: "livescan", want: "\nscanned 7 devices twice, stored 12 observations\n" +
			"heartbeat probing took 2 devices offline; 2 refused the second sweep\n" +
			"batch GCD factored 4 of 7 distinct moduli\n"},
		{bin: "batchgcd", args: "-k 4 -stats", keygen: "-n 200 -weak 0.05", want: "factored 9 of 200 moduli"},
		{bin: "batchgcd", args: "-k 4 -stats", keygen: "-n 60 -weak 0.1 -format ssh", want: "factored 5 of 60 moduli"},
		{bin: "batchgcd", args: "-k 4 -stats", keygen: "-n 60 -weak 0.1 -format pem", want: "factored 5 of 60 moduli"},
		{bad: true, bin: "keyrouter", args: "-listen 127.0.0.1:0", want: "keyrouter: -replicas is required"},
		{bad: true, bin: "keyserverd", args: "-listen 127.0.0.1:0 -cluster-self 127.0.0.1:1 -cluster-peers 127.0.0.1:2,127.0.0.1:3",
			want: `keyserverd: -cluster-self "127.0.0.1:1" does not appear in -cluster-peers`},
		{bad: true, bin: "keyserverd", args: "-listen 127.0.0.1:0 -log-format xml", want: `keyserverd: -log-format must be text or json, got "xml"`},
		{bad: true, bin: "keyrouter", args: "-listen 127.0.0.1:0 -replicas 127.0.0.1:1 -log-format xml", want: `keyrouter: -log-format must be text or json, got "xml"`},
		{bad: true, bin: "zscand", args: "-diag 127.0.0.1:0 -shard 3/2", want: `zscand: -shard "3/2": index must be in [0,2)`},
		{bad: true, bin: "weakkeys", args: "-listen 127.0.0.1:0 -log-format xml", want: `weakkeys: -log-format must be text or json, got "xml"`},
	} {
		var in string
		if tc.keygen != "" {
			var err error
			if in, _, err = run("", "keygen", strings.Fields(tc.keygen+" -bits 256 -seed 7")...); err != nil {
				t.Fatalf("keygen %s: %v", tc.keygen, err)
			}
		}
		out, errOut, err := run(in, tc.bin, strings.Fields(tc.args)...)
		if out = "\n" + out + errOut; (err != nil) != tc.bad || !strings.Contains(out, tc.want) || tc.bad && strings.Contains(out, "http://") {
			t.Errorf("%s %s (bad: %v): %v, want %q in:\n%s", tc.bin, tc.args, tc.bad, err, tc.want, out)
		}
	}
}

// weakPair: two 128-bit moduli sharing the 64-bit prime 0xad78dc4bfb9e8ddb, in no simulated corpus.
const weakPair = `{"moduli_hex":["801e58579270d8dab1a09cf329cc5a05","7eabc8fe480ede7475777dbe615c3dcf"]}`

// TestKeyserverd drives one keyserverd from startup to SIGTERM: corpus and anomaly verdicts, a
// correlated ingest, a zscand sweep bridged into it, a SIGUSR1 bundle and the drain.
func TestKeyserverd(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	bundle := filepath.Join(dir, "bundle.tar.gz")
	// -scale 0.3 keeps enough of -anomaly-fleet's CloneGate devices alive
	// that their baked-in modulus is seen under at least two identities.
	ks := start(t, "keyserverd", "-scale", "0.3", "-bits", "128", "-subsets", "3", "-anomaly-fleet", "-listen", "127.0.0.1:0", "-debug-bundle", bundle)
	base := ks.waitLog(`keycheck API on (http://[^/]+)/v1/check`)
	ex := exemplars(t, base)
	if v := check(t, base, ex.Factored[0], ""); v.Status != keycheck.StatusFactored || v.FactorP == "" {
		t.Errorf("factored exemplar: %+v", v.Verdict)
	}
	if v := check(t, base, ex.Clean[0], ""); v.Status != keycheck.StatusClean || !v.Known {
		t.Errorf("clean exemplar: %+v", v.Verdict)
	}
	if len(ex.Shared) == 0 {
		t.Fatalf("no shared-modulus exemplar from the anomaly fleet: %+v", ex)
	}
	if v := check(t, base, ex.Shared[0], ""); v.Status != keycheck.StatusSharedModulus || v.SharedWith < 2 {
		t.Errorf("shared exemplar: %+v", v.Verdict)
	}
	// Close primes, the prime 641, an even exponent on a clean key: one
	// verdict of each other beyond-GCD class, for /metrics to count.
	check(t, base, "80000000000000a4f7f752d5a9af784d", "")
	check(t, base, "21a15d2b7cf5a5b74215ef0607a46a72b", "")
	check(t, base, ex.Clean[0], `,"exponent_hex":"2"`)

	// One request ID joins an ingest's reply, its flight-recorder events
	// and its ledger row: main gave the service and the /debug mux the
	// same event log and request tracker.
	call(t, base+"/v1/ingest", weakPair, nil, "X-Request-Id", "e2e-ingest-1")
	var ledger struct{ Recent []map[string]any }
	events := string(call(t, base+"/debug/events?request_id=e2e-ingest-1", "", nil))
	if call(t, base+"/debug/requests", "", &ledger); !strings.Contains(events, `"msg":"ingest report"`) || len(ledger.Recent) == 0 || ledger.Recent[0]["request_id"] != "e2e-ingest-1" {
		t.Errorf("the request ID reached neither /debug/events nor /debug/requests:\n%s%+v", events, ledger)
	}

	// Every fleet device resets its first connection (-chaos-every 2), so
	// only the second cycle's re-sweep delivers the harvest; the bridge
	// must flip a weak fleet modulus this server has never seen to
	// factored, with no restart.
	fleet := []string{"-space", "65536", "-devices", "48", "-vulnerable", "0.5", "-bits", "256", "-fleet-seed", "2016", "-q"}
	var scan struct {
		WeakExemplars []string `json:"weak_exemplars"`
		Scan          zscan.Report
		Ingest        zscan.BridgeStats
	}
	out, errOut, err := run("", "zscand", append(fleet, "-dry-run")...)
	if err != nil || json.Unmarshal([]byte(out), &scan) != nil || len(scan.WeakExemplars) == 0 {
		t.Fatalf("zscand -dry-run: %v\n%s%s", err, out, errOut)
	}
	weak := scan.WeakExemplars[0]
	if v := check(t, base, weak, ""); v.Status != keycheck.StatusClean || v.Known {
		t.Fatalf("fleet exemplar before the scan: %+v", v.Verdict)
	}
	out, errOut, err = run("", "zscand", append(fleet, "-seed", "1", "-cycles", "2", "-chaos-every", "2",
		"-checkpoint-dir", dir, "-checkpoint-every", "8", "-ingest-url", base+"/v1/ingest")...)
	if err != nil || json.Unmarshal([]byte(out), &scan) != nil {
		t.Fatalf("zscand: %v\n%s%s", err, out, errOut)
	}
	if scan.Scan.Stored != 48 || scan.Scan.NovelModuli != 48 || scan.Ingest.Delivered != 48 || scan.Ingest.Dropped != 0 {
		t.Errorf("48 devices, yet scan %+v and bridge %+v", scan.Scan, scan.Ingest)
	}
	if deltas, _ := filepath.Glob(filepath.Join(dir, "zscan-*.delta")); len(deltas) < 6 {
		t.Errorf("%d delta checkpoints on disk, want >= 6 (48 stored, one per 8)", len(deltas))
	}
	if v := check(t, base, weak, ""); v.Status != keycheck.StatusFactored || v.FactorP == "" {
		t.Errorf("fleet exemplar after the scan: %+v", v.Verdict)
	}

	counted(t, base, `keycheck_checks_total{verdict="factored"}`, `keycheck_checks_total{verdict="clean"}`,
		`keycheck_checks_total{verdict="shared_modulus"}`, `keycheck_checks_total{verdict="fermat_weak"}`,
		`keycheck_checks_total{verdict="small_factor"}`, `keycheck_checks_total{verdict="unsafe_exponent"}`,
		`keycheck_http_requests_total{code="200"}`, `keycheck_ingest_total{outcome="ok"}`, "keycheck_index_moduli", "keycheck_shard_moduli")

	// SIGUSR1 leaves the postmortem bundle on disk as a real gzip-tar.
	ks.cmd.Process.Signal(syscall.SIGUSR1)
	ks.waitLog(`debug bundle written to`)
	names := " "
	if f, err := os.Open(bundle); err == nil {
		defer f.Close()
		if zr, err := gzip.NewReader(f); err == nil {
			tr := tar.NewReader(zr)
			for hdr, err := tr.Next(); err == nil; hdr, err = tr.Next() {
				names += hdr.Name + " "
			}
		}
	}
	for _, want := range []string{"meta.json", "metrics.prom", "events.json", "requests.json", "goroutines.txt"} {
		if !strings.Contains(names, " "+want+" ") {
			t.Errorf("the bundle read as a gzipped tar lacks %s; it holds%s", want, names)
		}
	}

	ks.cmd.Process.Signal(syscall.SIGTERM)
	ks.waitLog(`drained; bye`) // a drain, not an abort
}

// TestCluster runs three partial-snapshot keyserverd replicas behind a keyrouter, each told only
// the ordered peer list: routed verdicts with full coverage, a routed ingest that sync carries to
// every owner, keyload through a SIGKILL of one replica with no verdict lost, and that replica's
// restart, which recovers the ingested keys from its peers' journals.
func TestCluster(t *testing.T) {
	t.Parallel()
	addrs := reservePorts(t, 4)
	peers, base := addrs[:3], "http://"+addrs[3]
	// peers[1], the replica killed and restarted, must own the first ingested key's home shard, so
	// its restart has a key to recover; placement hashes names, so reordering them moves nothing.
	p, _ := cluster.NewPlacement(peers, keycheck.DefaultShards, 0)
	first, _ := keycheck.ParseModulusHex("801e58579270d8dab1a09cf329cc5a05")
	home := slices.Index(peers, p.Owners(keycheck.ShardOf(first, keycheck.DefaultShards))[0])
	peers[1], peers[home] = peers[home], peers[1]
	list := strings.Join(peers, ",")
	replica := func(addr string) *proc {
		return start(t, "keyserverd", "-scale", "0.05", "-bits", "128", "-subsets", "3", "-seed", "2016", "-rate", "0",
			"-listen", addr, "-cluster-self", addr, "-cluster-peers", list, "-sync-interval", "200ms")
	}
	replicas := []*proc{replica(peers[0]), replica(peers[1]), replica(peers[2])}
	router := start(t, "keyrouter", "-listen", addrs[3], "-replicas", list)
	router.waitReady(base + "/readyz") // every shard has a usable owner: the replicas' study runs are done

	indexed := func() (sum int) { // moduli indexed, summed over the replicas
		for _, addr := range peers {
			var stats struct{ Index keycheck.SnapshotStats }
			call(t, "http://"+addr+"/v1/stats", "", &stats)
			sum += stats.Index.Moduli
		}
		return sum
	}
	status := func() string { // {replication [{healthy} per replica, in -replicas order] [uncovered shards]}
		var st struct {
			Replication     int
			Replicas        []struct{ Healthy bool }
			UncoveredShards []int `json:"uncovered_shards"`
		}
		call(t, base+"/cluster/status", "", &st)
		return fmt.Sprint(st)
	}
	// Two replicas can cover every shard, so ready is not yet all three up.
	router.poll("three healthy replicas, every shard covered", func() bool { return status() == "{2 [{true} {true} {true}] []}" })
	baseline := indexed()

	// The processes agree on placement from the flag alone: a weak corpus
	// key is answered by its home owner, a novel semiprime of two 128-bit
	// primes (nothing the anomaly probes can break) by every shard.
	weak := exemplars(t, base).Factored[0]
	if v := check(t, base, weak, ""); v.Status != keycheck.StatusFactored || v.FactorP == "" || v.Degraded {
		t.Errorf("weak exemplar via the router: %+v", v)
	}
	if v := check(t, base, "83d10bc678bfd027d37189b7de9afeb8aadb3fb6bb7b9b772d73eccee0c13f21", ""); v.Status != keycheck.StatusClean || v.Known || v.Degraded {
		t.Errorf("novel key via the router: %+v", v)
	}

	// A routed ingest lands on the home-shard owners at once, and the
	// journal pull carries each key to the other owner of its shard:
	// the summed corpus grows by 2 keys x replication 2.
	var rep struct {
		keycheck.IngestReport
		Degraded bool
	}
	call(t, base+"/v1/ingest", weakPair, &rep)
	if v := check(t, base, first.Text(16), ""); rep.DeltaModuli != 2 || rep.Degraded || !v.Known {
		t.Errorf("routed ingest: %+v; its first key, asked for at once: %+v", rep, v)
	}
	router.poll("sync to reach every owner, and no other replica", func() bool { return indexed() == baseline+4 })

	// Load through the router; one replica dies once checks are flowing.
	const served = `cluster_http_requests_total{code="200"}`
	before := metric(t, base, served)
	result := filepath.Join(t.TempDir(), "keyload.json")
	load := start(t, "keyload", "-addr", addrs[3], "-c", "8", "-duration", "3s", "-retries", "8", "-json", result, "-q")
	load.poll("checks flowing", func() bool { return metric(t, base, served) >= before+200 })
	replicas[1].cmd.Process.Signal(syscall.SIGKILL)
	var tally struct{ Checks, Errors int }
	load.poll("keyload's result", func() bool { raw, _ := os.ReadFile(result); return json.Unmarshal(raw, &tally) == nil })
	if tally.Checks == 0 || tally.Errors != 0 {
		t.Errorf("%d of %d checks lost their verdict to the SIGKILL", tally.Errors, tally.Checks)
	}

	// The router noticed the death and still covers every shard.
	router.poll("the dead replica alone marked unhealthy", func() bool { return status() == "{2 [{true} {false} {true}] []}" })
	call(t, base+"/readyz", "", nil)
	counted(t, base, `cluster_probe_failures_total{replica="`+peers[1]+`"}`, "cluster_forward_total")
	if v := check(t, base, weak, ""); v.Status != keycheck.StatusFactored || v.Degraded {
		t.Errorf("weak exemplar after the kill: %+v", v)
	}

	// Restarted with its original flags and no operator step, the replica rebuilds its study
	// snapshot and its fresh pull positions read every peer's journal from the start.
	replica(peers[1])
	router.poll("the restarted replica healthy again", func() bool { return status() == "{2 [{true} {true} {true}] []}" })
	router.poll("the restarted replica to recover the ingested keys", func() bool { return indexed() == baseline+4 })
}
