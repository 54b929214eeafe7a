package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and the share of the base by which it
// may worsen.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// loadBenchmarkSpec finds BENCHMARK.json at the root of the checkout,
// whether the command runs from there or from this directory.
func loadBenchmarkSpec() (*benchmarkSpec, error) {
	var raw []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if raw, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func loadResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// noiseOf is how far the reported median may be off by the run's own
// account: the quartile distance of its repetitions or windows as a share
// of their median, over the root of their number — about one standard
// error of a median.
func noiseOf(m metric) float64 {
	if len(m.Samples) < 2 || m.Value == 0 {
		return 0
	}
	s := sortedCopy(m.Samples)
	return (quantile(s, 0.75) - quantile(s, 0.25)) / median(s) / math.Sqrt(float64(len(s)))
}

// judge compares b against its base a. worse is the share of a by which
// b is worse (negative when better). A worsening beyond the bound that
// also exceeds the noise is a regression; a metric whose noise exceeds
// the bound cannot be called unchanged and is unresolved.
func judge(a, b, noise, bound float64, higherBetter bool) (worse float64, verdict string) {
	worse = (b - a) / a
	if higherBetter {
		worse = -worse
	}
	switch {
	case worse > bound && worse > noise:
		return worse, "regressed"
	case worse <= bound && noise <= bound:
		return worse, "ok"
	}
	return worse, "unresolved"
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		return err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base a: %s  (%d cores, %s, commit %s, seed %d)\n", pathA, a.Machine.Cores, a.Machine.Go, a.Machine.Commit, a.Seed)
	fmt.Fprintf(w, "     b: %s  (%d cores, %s, commit %s, seed %d)\n", pathB, b.Machine.Cores, b.Machine.Go, b.Machine.Commit, b.Seed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tunit\tb/a\tworse by\tbound\tnoise\tverdict")
	counts := map[string]int{}
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl], b.Workloads[wl]
		if ra == nil || rb == nil {
			continue
		}
		for _, e := range spec.EndToEnd {
			ma, okA := ra.Metrics[e.Name]
			mb, okB := rb.Metrics[e.Name]
			if !okA || !okB {
				continue
			}
			noise := max(noiseOf(ma), noiseOf(mb))
			worse, verdict := judge(ma.Value, mb.Value, noise, e.Bound, e.Better == "higher")
			counts[verdict]++
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%.3f\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
				wl, e.Name, ma.Value, mb.Value, e.Unit, mb.Value/ma.Value, 100*worse, 100*e.Bound, 100*noise, verdict)
		}
		// failed_share has no bound: any rise is a regression.
		verdict := "ok"
		if rb.failedShare() > ra.failedShare() {
			verdict = "regressed"
		}
		counts[verdict]++
		fmt.Fprintf(tw, "%s\tfailed_share\t%.6f\t%.6f\tratio\t\t\tany rise\t\t%s\n", wl, ra.failedShare(), rb.failedShare(), verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d ok, %d regressed, %d unresolved (ratios are b over base a)\n", counts["ok"], counts["regressed"], counts["unresolved"])
	if counts["regressed"] > 0 || counts["unresolved"] > 0 {
		return fmt.Errorf("%d regressed, %d unresolved", counts["regressed"], counts["unresolved"])
	}
	return nil
}
