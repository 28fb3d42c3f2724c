package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mesa/internal/experiments"
	"mesa/internal/kernels"
	"mesa/internal/obs"
	"mesa/internal/sim"
)

// sweepTask is one experiment call of the paper sweep: the rendered text of
// every experiment `mesabench` runs by default, plus the CollectBench
// snapshot, which is what a researcher reproducing the paper waits for.
type sweepTask struct {
	name string
	run  func() (string, error)
}

func renderOf[T interface{ Render() string }](f func() (T, error)) func() (string, error) {
	return func() (string, error) {
		r, err := f()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

func sweepTasks() []sweepTask {
	return []sweepTask{
		{"table1", func() (string, error) { return experiments.Table1().Render(), nil }},
		{"fig2", func() (string, error) { return experiments.Figure2().Render(), nil }},
		{"fig4", renderOf(experiments.Figure4)},
		{"fig8", renderOf(experiments.Figure8)},
		{"table2", renderOf(experiments.Table2)},
		{"fig11", renderOf(experiments.Figure11)},
		{"fig12", renderOf(experiments.Figure12)},
		{"fig13", renderOf(experiments.Figure13)},
		{"fig14", renderOf(experiments.Figure14)},
		{"fig15", renderOf(experiments.Figure15)},
		{"fig16", renderOf(experiments.Figure16)},
		{"ablations", experiments.RenderAblations},
		{"mappers", renderOf(experiments.Mappers)},
		{"attrib", renderOf(experiments.Attrib)},
		{"bench", collectBench},
	}
}

func collectBench() (string, error) {
	s, err := experiments.CollectBench()
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// benchTolerance is the relative tolerance `make bench-check` applies to
// the gated simulated metrics.
const benchTolerance = 0.02

// sweep runs every task from an empty simulation cache and a collected heap,
// as a fresh mesabench process would, on the given worker count, fanning
// the tasks out the way mesabench does, and returns the
// output of each task that succeeded keyed by name, the error of each that
// failed, and the wall time.
func sweep(tasks []sweepTask, workers int, tr *tracer, parent *obs.Span) (map[string]string, map[string]error, time.Duration) {
	experiments.ResetSimMemo()
	runtime.GC()
	experiments.SetWorkers(workers)
	type taskResult struct {
		out string
		err error
	}
	t0 := time.Now()
	// Tasks report their own errors, so one failing experiment does not
	// cancel the others and every call is counted.
	results, _ := experiments.Run(context.Background(), workers, len(tasks),
		func(_ context.Context, i int) (taskResult, error) {
			sp := tr.start(parent, tasks[i].name)
			defer sp.End()
			out, err := tasks[i].run()
			return taskResult{out, err}, nil
		})
	wall := time.Since(t0)
	outs := make(map[string]string, len(tasks))
	errs := map[string]error{}
	for i, t := range tasks {
		if results[i].err != nil {
			errs[t.name] = results[i].err
		} else {
			outs[t.name] = results[i].out
		}
	}
	return outs, errs, wall
}

// runPaperSweep alternates cold sweeps of every sweep task at 1 worker and
// at nproc workers; tiny mode keeps two tasks.
func runPaperSweep(cfg config, tr *tracer) (*outcome, error) {
	tasks := sweepTasks()
	if cfg.tiny {
		var keep []sweepTask
		for _, t := range tasks {
			if t.name == "table2" || t.name == "bench" {
				keep = append(keep, t)
			}
		}
		tasks = keep
	}
	return sweepWorkload(cfg, tr, tasks)
}

// sweepWorkload runs rounds of cold sweeps over tasks. Each round is one
// sweep at each worker count; the seed shuffles the task order, which must
// not change any output.
func sweepWorkload(cfg config, tr *tracer, tasks []sweepTask) (*outcome, error) {
	out := &outcome{}
	nproc := runtime.NumCPU()
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x5eed))
	rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })

	sp := tr.start(nil, "setup")
	if err := kernelInputs(); err != nil {
		return nil, err
	}
	baseline, err := experiments.ReadBench(filepath.Join(cfg.root, "BENCH_baseline.json"))
	if err != nil {
		return nil, err
	}
	sp.End()
	if cfg.probe {
		return out, nil
	}
	firstOp := time.Since(processStart)

	var (
		serial, parallel []float64
		reference        map[string]string
		misses, hits     []float64
		sweepSecs        float64
		calls            int
		speed, retained  []float64
		forcedGCs        uint32
	)
	before := readMem()
	timing := experiments.SimTimingHistograms()
	experiments.ResetSimTiming()
	probes := newProber(cfg)
	nRounds, err := rounds(cfg, 3, func(i int) error {
		for _, workers := range []int{1, nproc} {
			speed = append(speed, probeHost())
			sp := tr.start(nil, fmt.Sprintf("sweep/%dw", workers))
			res, errs, wall := sweep(tasks, workers, tr, sp)
			sp.End()
			retained = append(retained, retainedMB())
			forcedGCs += 2
			out.attempted += len(tasks)
			out.failed += len(errs)
			calls += len(tasks)
			sweepSecs += wall.Seconds()
			for name, err := range errs {
				out.line("failed: sweep at %d workers: %s: %v", workers, name, err)
			}
			for _, m := range experiments.SimMemoMetrics() {
				switch m.Name {
				case "sim_cache_misses":
					misses = append(misses, m.Value)
				case "sim_cache_hits":
					hits = append(hits, m.Value)
				}
			}
			if workers == 1 {
				serial = append(serial, ms(wall))
			} else {
				parallel = append(parallel, ms(wall))
			}
			if err := probes.tick(); err != nil {
				return err
			}
			if len(errs) > 0 {
				continue
			}
			if reference == nil {
				reference = res
				checkBaseline(out, baseline, res["bench"])
			} else {
				for name, want := range reference {
					if res[name] != want {
						out.problem("sweep at %d workers: %s output differs from the first sweep", workers, name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	alloc := memSince(before)
	experiments.SetWorkers(nproc)
	setupS, err := probes.seconds()
	if err != nil {
		return nil, err
	}

	if err := verifyKernelsFunctionally(); err != nil {
		out.problem("%v", err)
	}

	sweeps := float64(len(serial) + len(parallel))
	scale := hostScale(speed)
	out.e2e = map[string]metric{
		"setup_s":     {setupS, "s"},
		"retained_mb": {median(retained), "MB"},
		"main_ms":     {median(serial) * scale, "ms"},
		"alt_ms":      {median(parallel) * scale, "ms"},
		"rate_per_s":  {float64(calls) / sweepSecs / scale, "1/s"},
	}
	out.line("rounds %d: %d cold sweeps at 1 worker, %d at %d workers; %d experiment calls per sweep",
		nRounds, len(serial), len(parallel), nproc, len(tasks))
	out.line("operations (experiment calls): attempted %d failed %d", out.attempted, out.failed)
	out.line("setup_s        %10.4f s   (median of %d set-up probes; this process's start to its first sweep %.4f s)", setupS, len(probes.secs), firstOp.Seconds())
	out.line("sweep_s        %10.4f s   (median cold sweep at 1 worker, n=%d)", median(serial)/1e3, len(serial))
	out.line("sweep_par_s    %10.4f s   (median cold sweep at %d workers, n=%d)", median(parallel)/1e3, nproc, len(parallel))
	out.line("calls_per_s    %10.4f 1/s (experiment calls per second of sweep wall)", float64(calls)/sweepSecs)
	out.line("host probe     %10.4f ms  (median of %d; timing metrics scaled by %.4f to a %g ms probe)", median(speed), len(speed), scale, probeNominalMS)
	out.line("retained_mb    %10.1f MB  (live heap after a sweep, median of %d)", median(retained), len(retained))
	out.line("peak_rss_mb    %10.1f MB", peakRSSMB())
	out.line("sweep walls at 1 worker (ms): %s", formatMs(serial))
	out.line("sweep walls at %d workers (ms): %s", nproc, formatMs(parallel))
	out.line("simulations per sweep (memo misses) %g, memo hits %g", median(misses), median(hits))

	if cfg.trace {
		out.layers = map[string]metric{
			"experiments.memo_misses": {median(misses), "count"},
			"experiments.memo_hits":   {median(hits), "count"},
			"experiments.sim_run_ms":  {histMeanMS(timing, "sim_run_seconds"), "ms"},
			"go.alloc_mb":             {alloc.allocMB / sweeps, "MB"},
			"go.gc_cycles":            {float64(alloc.gcs-forcedGCs) / sweeps, "count"},
		}
		if err := replayLayers(cfg, tr, kernelRegions(cfg), out); err != nil {
			return nil, err
		}
		if err := replayServer(tr, kernelRequests(cfg), out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkBaseline compares the gated simulated metrics of a CollectBench
// snapshot with the committed baseline under the bench-check tolerance, in
// both directions: `make bench-check` flags only the worse direction, but
// simulated cycles that fall by more than the tolerance mean the simulation
// changed, not that the host got faster. Later sweeps are byte-compared with
// the first, so one check covers all.
func checkBaseline(out *outcome, baseline *experiments.BenchSnapshot, snapshot string) {
	var snap experiments.BenchSnapshot
	if err := json.Unmarshal([]byte(snapshot), &snap); err != nil {
		out.problem("CollectBench snapshot: %v", err)
		return
	}
	diffs, _ := experiments.CompareBench(baseline, &snap, benchTolerance)
	for _, d := range diffs {
		switch {
		case d.Missing:
			out.problem("CollectBench has no %s, which the baseline has", d.Name)
		case d.Regressed || math.Abs(d.Rel) > benchTolerance:
			out.problem("CollectBench %s = %g, baseline %g (tolerance ±%g)", d.Name, d.Current, d.Baseline, benchTolerance)
		}
	}
}

func formatMs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 0, 64)
	}
	return strings.Join(parts, " ")
}

// histMeanMS is the mean of the named histogram in milliseconds (0 when it
// holds no observation).
func histMeanMS(hs []*obs.Histogram, name string) float64 {
	for _, h := range hs {
		if h.Name() == name {
			s := h.Snapshot()
			if s.Count == 0 {
				return 0
			}
			return 1e3 * s.Sum / float64(s.Count)
		}
	}
	return 0
}

// verifyKernelsFunctionally runs every kernel on the functional interpreter
// and checks its final memory with the kernel's Go reference verifier: an
// independent computation of the outputs every MESA run of the sweep is
// also verified against.
func verifyKernelsFunctionally() error {
	for _, k := range kernels.All() {
		prog, _, err := k.Program()
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		m := sim.New(prog, k.NewMemory(experiments.Seed))
		if _, err := m.Run(experiments.MaxSteps); err != nil {
			return fmt.Errorf("%s: functional run: %w", k.Name, err)
		}
		if err := k.Verify(m.Mem); err != nil {
			return fmt.Errorf("%s: reference verifier: %w", k.Name, err)
		}
	}
	return nil
}
