// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives the simulator from outside, through the experiments, genkern and
// server packages, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh steady -runs 5
//
// Workloads: paper-sweep and serve-mix (see README.md). With
// --trace 0 the result carries the end-to-end metrics; with --trace 1 the
// run also records spans around every timed call, replays each layer, writes
// a Chrome trace, and the result carries the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// processStart approximates the process start time: package variables are
// initialised before main runs, after the runtime has started.
var processStart = time.Now()

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every input to a smoke-test size (tests only).
	tiny bool
	// probe makes the run a set-up probe: the workload sets up and returns.
	probe bool
	// traceDir receives the Chrome trace of a traced run.
	traceDir string
	// root is the repository root, where BENCH_baseline.json lives.
	root string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload returns: the operation counts, the end-to-end
// and per-layer metrics, and the human-readable report lines that name every
// figure in the workload's own terms.
type outcome struct {
	attempted, failed int
	// problems lists failed correctness checks; any entry makes the run
	// incorrect and the exit code non-zero.
	problems []string
	e2e      map[string]metric
	layers   map[string]metric
	report   []string
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) line(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, tr *tracer) (*outcome, error){
	"paper-sweep": runPaperSweep,
	"serve-mix":   runServeMix,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(runSteady(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measured time per run")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	root := fs.String("root", ".", "repository root (holds BENCH_baseline.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: filepath.Join(".bench_build", "traces"), root: *root}
	if os.Getenv(probeEnv) != "" {
		cfg.probe = true
		if _, err := run(cfg, nil); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: set-up: %v\n", cfg.workload, err)
			return 1
		}
		return 0
	}
	return execute(cfg, run, stdout, stderr)
}

// execute runs one workload and prints its report and result line. It
// returns 1 when the run failed or any correctness check failed. A failed
// operation fails a check too: each
// one hides an output that could not be checked, such as an experiment call
// whose MESA run failed its reference verifier or a reply that was not 200.
func execute(cfg config, run func(config, *tracer) (*outcome, error), stdout, stderr io.Writer) int {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	fmt.Fprintln(stdout, hostStamp())
	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %g  trace %t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	out, err := run(cfg, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if out.failed > 0 {
		out.problem("%d of %d operations failed", out.failed, out.attempted)
	}
	if cfg.trace {
		path, err := tr.write(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: trace: %v\n", err)
			return 1
		}
		out.line("trace: %d spans written to %s", tr.spans(), path)
	}
	for _, l := range out.report {
		fmt.Fprintln(stdout, l)
	}
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.e2e,
	}
	if cfg.trace {
		res.Metrics = out.layers
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d correctness check(s) failed\n", cfg.workload, len(out.problems))
		return 1
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s: no operation attempted\n", cfg.workload)
		return 1
	}
	return 0
}
