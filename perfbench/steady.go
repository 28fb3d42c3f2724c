package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the steadiness command and the tests
// read.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// quartiles returns the first, second and third quartiles by the
// "exclusive" rule of Python's statistics.quantiles(values, n=4).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	ld := len(d)
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// runSteady runs two interleaved sets of runs of this build on every
// workload, each run with its own seed, and reports per metric each set's
// median and quartiles (Python's statistics.quantiles rule), the spread
// (interquartile distance over the median) of each set and of all runs
// together, and whether the sets agree: every spread within the bound, the
// second median no worse than the first by more than the bound, and the
// same share of failed operations in every run. It exits 1 when any check
// fails.
func runSteady(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runs := fs.Int("runs", 10, "runs per set and workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := readSpec(".")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench steady:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench steady:", err)
		return 1
	}
	ok := true
	for _, wl := range sp.Workloads {
		w := wl.Name
		// sets[s][metric] holds set s's values; seeds differ across all runs.
		var sets [2]map[string][]float64
		var failShare [2][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
		}
		for i := 0; i < *runs; i++ {
			for s := 0; s < 2; s++ {
				seed := int64(1 + s**runs + i)
				res, err := runChild(self, w, seed, sp.RunSeconds)
				if err != nil {
					fmt.Fprintf(stderr, "perfbench steady: %s seed %d: %v\n", w, seed, err)
					return 1
				}
				fmt.Fprintf(stderr, "%s seed %d: %s\n", w, seed, summarize(res))
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
				failShare[s] = append(failShare[s], float64(res.Failed)/float64(res.Attempted))
			}
		}
		fmt.Fprintf(stdout, "== %s (%d runs per set, %d s each)\n", w, *runs, sp.RunSeconds)
		fmt.Fprintf(stdout, "%-12s %12s %12s %12s %7s | %12s %12s %12s %7s | %7s | %6s %7s  %s\n",
			"metric", "A q1", "A median", "A q3", "spread", "B q1", "B median", "B q3", "spread", "all", "bound", "worse", "verdict")
		for _, e := range sp.EndToEnd {
			a, b := quartiles(sets[0][e.Name]), quartiles(sets[1][e.Name])
			all := quartiles(append(append([]float64(nil), sets[0][e.Name]...), sets[1][e.Name]...))
			spreadA, spreadB, spreadAll := (a[2]-a[0])/a[1], (b[2]-b[0])/b[1], (all[2]-all[0])/all[1]
			worse := (b[1] - a[1]) / a[1]
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := "agree"
			switch {
			case len(sets[0][e.Name]) == 0 || math.IsNaN(worse):
				verdict = "MISSING"
			case spreadA > e.Bound || spreadB > e.Bound || spreadAll > e.Bound:
				verdict = "SPREAD>BOUND"
			case worse > e.Bound:
				verdict = "MEDIANS DIFFER"
			case spreadA > e.Bound/3 || spreadB > e.Bound/3 || spreadAll > e.Bound/3:
				verdict = "agree (spread above a third of the bound)"
			}
			if !strings.HasPrefix(verdict, "agree") {
				ok = false
			}
			fmt.Fprintf(stdout, "%-12s %12.5g %12.5g %12.5g %6.1f%% | %12.5g %12.5g %12.5g %6.1f%% | %6.1f%% | %5.0f%% %6.1f%%  %s\n",
				e.Name, a[0], a[1], a[2], 100*spreadA, b[0], b[1], b[2], 100*spreadB, 100*spreadAll, 100*e.Bound, 100*worse, verdict)
		}
		fa, fb := median(failShare[0]), median(failShare[1])
		fmt.Fprintf(stdout, "failed share: A %g, B %g\n", fa, fb)
		if !equalShares(failShare[0], failShare[1]) {
			fmt.Fprintln(stdout, "FAILED SHARE DIFFERS between runs")
			ok = false
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func equalShares(a, b []float64) bool {
	for _, x := range append(a, b...) {
		if x != a[0] {
			return false
		}
	}
	return true
}

func summarize(r *result) string {
	var keys []string
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := []string{fmt.Sprintf("correct=%t attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)}
	for _, k := range keys {
		parts = append(parts, k+"="+strconv.FormatFloat(r.Metrics[k].Value, 'g', 5, 64))
	}
	return strings.Join(parts, " ")
}

// runChild runs one benchmark process and parses its result line.
func runChild(self, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v\n%s%s", err, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Attempted < 1 {
		return nil, fmt.Errorf("incorrect run:\n%s", stdout.String())
	}
	return &res, nil
}
