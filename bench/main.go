// Command bench is the repository's one benchmark: four seeded
// workloads over the whole loop — offline batch GCD, cold and routed-hot
// /v1/check serving, and a paced scan ingested beside reads — measured
// end to end and, in a separate traced pass, layer by layer. README.md
// in this directory says why each workload exists and what every metric
// means; BENCHMARK.json at the repository root is the contract.
//
//	bash bench/run.sh --seed 2016              every workload, end to end
//	bash bench/run.sh --seed 2016 --trace 1    every workload, per layer
//	bash bench/run.sh --workload serve_cold --seed 7 --seconds 20 --trace 0
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workloads in the order they run and print.
var workloads = []string{"batch_gcd", "serve_cold", "routed_hot", "scan_ingest"}

// scratchDir holds what a run leaves behind: checkpoints while it runs,
// results and traces after. It is relative to the checkout the command
// is run from and listed in .gitignore.
const scratchDir = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four, one process each)")
		seed     = flag.Int64("seed", 2016, "the only input that shapes the load")
		seconds  = flag.Float64("seconds", 20, "seconds each workload measures for")
		trace    = flag.Int("trace", 0, "1 runs the traced pass: per-layer metrics and a Chrome trace")
		clients  = flag.Int("clients", 0, "closed-loop client connections in total (default min(nproc, 2))")
		out      = flag.String("out", "", "write the full results as JSON here (default "+scratchDir+"/results-<pass>.json)")
		compare  = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *clients, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailed is returned when a run finished but some output was wrong:
// the numbers are printed, and the exit status is non-zero.
var errFailed = errors.New("outputs differ from ground truth (failed_share > 0)")

func run(workload string, seed int64, seconds float64, trace bool, clients int, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return errors.New("-compare takes two results files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	nproc := runtime.NumCPU()
	if clients == 0 {
		clients = min(nproc, 2)
	}
	// More client goroutines than cores would time the load generator's
	// own queueing, not the system's.
	if clients > nproc {
		return fmt.Errorf("refusing %d client goroutines on %d cores", clients, nproc)
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	pass := "e2e"
	if trace {
		pass = "trace"
	}
	if workload == "" {
		if out == "" {
			out = filepath.Join(scratchDir, "results-"+pass+".json")
		}
		return runAll(seed, seconds, trace, clients, out)
	}
	cfg := config{
		workload: workload, seed: seed, seconds: seconds, trace: trace, clients: clients, sizes: benchSizes,
		traceOut: filepath.Join(scratchDir, "trace-"+workload+".json"),
	}
	if trace {
		cfg.sizes.setups = 1
	}
	res, err := runWorkload(context.Background(), cfg, scratchDir)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	printResult(res)
	if out != "" {
		one := results{Machine: thisMachine(), Seed: seed, Seconds: seconds, Trace: trace, Workloads: map[string]*result{workload: res}}
		if err := writeJSON(out, one); err != nil {
			return err
		}
	}
	// The driver reads the last line of standard output.
	fmt.Println(driverLine(res))
	return verdictOf(res)
}

// verdictOf turns any wrong output into a failed run.
func verdictOf(res *result) error {
	if res.Failed > 0 {
		return errFailed
	}
	return nil
}

func runWorkload(ctx context.Context, cfg config, scratch string) (*result, error) {
	switch cfg.workload {
	case "batch_gcd":
		return runBatchGCD(ctx, cfg)
	case "serve_cold":
		return runServeCold(ctx, cfg)
	case "routed_hot":
		return runRoutedHot(ctx, cfg)
	case "scan_ingest":
		return runScanIngest(ctx, cfg, scratch)
	}
	return nil, fmt.Errorf("unknown workload (have %s)", strings.Join(workloads, ", "))
}

// passNames lists the metrics a pass must print: all six end-to-end
// metrics untraced, every per-layer metric traced.
func passNames(trace bool) []string {
	if trace {
		return layerNames()
	}
	return e2eNames
}

// driverLine is the one JSON object the benchmark contract asks for.
func driverLine(res *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, name := range passNames(res.Trace) {
		m, ok := res.Metrics[name]
		if !ok {
			m = metric{Unit: layerUnits[name]}
		}
		metrics[name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	return string(line)
}

func printResult(res *result) {
	m := thisMachine()
	fmt.Printf("workload %s  seed %d  %gs  trace=%v\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	fmt.Printf("  machine: %d cores, GOMAXPROCS %d, %s, commit %s\n", m.Cores, m.GOMAXPROCS, m.Go, m.Commit)
	fmt.Printf("  load: %s loop, %d client connection(s); network: %s\n", res.Loop, res.Clients, res.Network)
	var inputs []string
	for k, v := range res.Inputs {
		inputs = append(inputs, k+"="+v)
	}
	sort.Strings(inputs)
	fmt.Printf("  inputs: %s\n", strings.Join(inputs, " "))
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		alias := ""
		if m.Alias != "" {
			alias = " (" + m.Alias + ")"
		}
		fmt.Printf("  %-44s %14.4f %-6s n=%d%s\n", name, m.Value, m.Unit, m.N, alias)
	}
	fmt.Printf("  %-44s %14.6f %-6s %d failed of %d attempted\n", "failed_share", res.failedShare(), "ratio", res.Failed, res.Attempted)
	if res.FirstFail != "" {
		fmt.Printf("  first failure: %s\n", res.FirstFail)
	}
}

// results is the file -out writes and -compare reads.
type results struct {
	Machine   machine            `json:"machine"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runAll runs every workload in a process of its own, so peak_rss_mb is
// the workload's and no workload inherits another's heap or caches.
func runAll(seed int64, seconds float64, trace bool, clients int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := results{Machine: thisMachine(), Seed: seed, Seconds: seconds, Trace: trace, Workloads: map[string]*result{}}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	failed := false
	for _, w := range workloads {
		part := filepath.Join(scratchDir, "part-"+w+".json")
		cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", traceArg, "-clients", fmt.Sprint(clients), "-out", part)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		// Everything but the driver's line is for people.
		lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		raw, err := os.ReadFile(part)
		if err != nil {
			return fmt.Errorf("%s: %v (no result: %w)", w, runErr, err)
		}
		os.Remove(part)
		var one results
		if err := json.Unmarshal(raw, &one); err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		all.Workloads[w] = one.Workloads[w]
		failed = failed || runErr != nil
	}
	if err := writeJSON(out, all); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", out)
	if trace {
		fmt.Printf("Chrome traces written to %s/trace-<workload>.json\n", scratchDir)
	}
	if failed {
		return errFailed
	}
	return nil
}
