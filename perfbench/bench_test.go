package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"mesa/internal/experiments"
	"mesa/internal/server"
)

// lastResult parses the final stdout line of a run.
func lastResult(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout)
	}
	return res
}

func sortedKeys(m map[string]metric) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, with all of its correctness checks, and checks that the metric
// names each run prints are exactly those BENCHMARK.json declares, in both
// directions, with the declared units.
func TestWorkloadsSmoke(t *testing.T) {
	sp, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, workloadNames())
	}
	wantE2E := map[string]string{}
	for _, m := range sp.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := map[string]string{}
	for _, m := range sp.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := tinyConfig(t, w)
				cfg.trace = trace
				var stdout, stderr bytes.Buffer
				if code := execute(cfg, workloads[w], &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				res := lastResult(t, stdout.String())
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				if !strings.HasPrefix(stdout.String(), "host: go=") {
					t.Errorf("no host stamp:\n%s", stdout.String())
				}
				want := wantE2E
				if trace {
					want = wantLayer
				}
				for name, m := range res.Metrics {
					unit, ok := want[name]
					switch {
					case !ok:
						t.Errorf("prints %s, which BENCHMARK.json does not declare", name)
					case unit != m.Unit:
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", name, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
					}
				}
				for name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("BENCHMARK.json declares %s, which the run does not print (prints %v)",
							name, sortedKeys(res.Metrics))
					}
				}
				if trace {
					if m := res.Metrics["accel.iter_allocs"]; m.Value != 0 {
						t.Errorf("accel.iter_allocs = %v, want 0", m.Value)
					}
					traces, _ := filepath.Glob(filepath.Join(cfg.traceDir, "*.json"))
					if len(traces) != 1 {
						t.Errorf("traced run wrote %d traces, want 1", len(traces))
					}
				}
			})
		}
	}
}

// TestMain lets the test binary stand in for the benchmark binary when a
// run starts it as a set-up probe.
func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) != "" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// tinyConfig is a smoke-test-sized run of the named workload.
func tinyConfig(t *testing.T, workload string) config {
	return config{workload: workload, seed: 7, seconds: 0.01, tiny: true, traceDir: t.TempDir(), root: ".."}
}

// TestFailedCheckExitsNonZero pins that a failed correctness check makes the
// result incorrect and the exit code 1.
func TestFailedCheckExitsNonZero(t *testing.T) {
	bad := func(config, *tracer) (*outcome, error) {
		out := &outcome{attempted: 1}
		out.problem("wrong output")
		return out, nil
	}
	var stdout, stderr bytes.Buffer
	if code := execute(tinyConfig(t, "paper-sweep"), bad, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if res := lastResult(t, stdout.String()); res.Correct {
		t.Fatalf("result %+v, want correct=false", res)
	}
}

// TestFailedOperationFailsRun pins that an operation which fails hides no
// failed check: an experiment call whose MESA run fails its reference
// verifier, and a reply that is not 200, each make the run incorrect and
// its exit code 1.
func TestFailedOperationFailsRun(t *testing.T) {
	t.Run("paper-sweep", func(t *testing.T) {
		sweepWith := func(cfg config, tr *tracer) (*outcome, error) {
			return sweepWorkload(cfg, tr, []sweepTask{
				{"table2", renderOf(experiments.Table2)},
				{"broken", func() (string, error) {
					return "", errors.New("nn on M-128: verification failed: out[3] = 1, want 2")
				}},
			})
		}
		var stdout, stderr bytes.Buffer
		if code := execute(tinyConfig(t, "paper-sweep"), sweepWith, &stdout, &stderr); code != 1 {
			t.Fatalf("exit %d, want 1\n%s", code, stdout.String())
		}
		res := lastResult(t, stdout.String())
		if res.Correct || res.Failed != 2 || res.Attempted != 4 {
			t.Fatalf("result %+v, want correct=false, 2 of 4 calls failed", res)
		}
		if !strings.Contains(stdout.String(), "verification failed") {
			t.Errorf("report does not name the failed call:\n%s", stdout.String())
		}
	})
	t.Run("serve-mix", func(t *testing.T) {
		svc, err := startService(1)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.stop()
		reqs := []request{newRequest("nosuchkernel", &server.Request{Kernel: "nosuchkernel", Backend: "M-128", Mapper: "greedy"})}
		res := runPhase(svc, reqs, []int{0}, 1, func(int, []byte) { t.Error("check called for a failed reply") }, nil, nil, 1)
		if res.failed != 1 {
			t.Fatalf("failed %d, want 1 (%+v)", res.failed, res)
		}
		replies := func(config, *tracer) (*outcome, error) {
			out := &outcome{attempted: 1, failed: res.failed}
			res.report(out, "cold")
			return out, nil
		}
		var stdout, stderr bytes.Buffer
		if code := execute(tinyConfig(t, "serve-mix"), replies, &stdout, &stderr); code != 1 {
			t.Fatalf("exit %d, want 1\n%s", code, stdout.String())
		}
		if !strings.Contains(stdout.String(), "not answered 200") {
			t.Errorf("report does not name the failed reply:\n%s", stdout.String())
		}
	})
}

// TestQuartilesMatchPython pins the quartile rule to Python's
// statistics.quantiles(values, n=4), which the steadiness check follows.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
		{[]float64{4, 2}, [3]float64{1.5, 3, 4.5}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestSpecWellFormed checks BENCHMARK.json against the limits its readers
// rely on.
func TestSpecWellFormed(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "command,end_to_end,paths,per_layer,run_seconds,workloads" {
		t.Fatalf("keys %s", got)
	}
	sp, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRe.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if !unitRe.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", name, better)
		}
	}
	for _, w := range sp.Workloads {
		if !nameRe.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q", w.Name)
		}
		seen[w.Name] = true
	}
	setup := false
	for _, m := range sp.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range sp.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range sp.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
	// A two-commit comparison makes 4 + 22 × workloads runs, which with
	// their set-up and checks must fit in 3420 s.
	runs := 4 + 22*len(sp.Workloads)
	if perRun := float64(3420-600) / float64(runs); float64(sp.RunSeconds)+8 > perRun {
		t.Errorf("%d runs of %d s leave too little margin", runs, sp.RunSeconds)
	}
}
