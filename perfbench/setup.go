package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"mesa/internal/experiments"
	"mesa/internal/kernels"
)

// setupProbes is how many probe processes a run starts to time its
// workload's set-up; setup_s is the median of their wall times.
func (c config) setupProbes() int {
	if c.tiny {
		return 1
	}
	return 11
}

// probeEnv, when set in a process's environment, makes the process a set-up
// probe: it sets up the named workload exactly as a run does, then exits
// without running it.
const probeEnv = "PERFBENCH_SETUP_PROBE"

// prober times the workload's set-up in probe processes of this binary,
// started one at a time between the run's operations and outside their
// timing. Each probe is a new process, so it pays everything a real start
// pays: the runtime and package initialisation, the kernel programs'
// assembly (memoized only within a process), the input images and the
// workload's own set-up, such as the server and its listener. Probe k is due
// at (k+1)/(n+1) of the measured time: a probe takes milliseconds and its
// speed follows the host's state at that moment, so probes spread over the
// run give a steadier median than probes bunched together.
type prober struct {
	cfg   config
	start time.Time
	secs  []float64
}

func newProber(cfg config) *prober { return &prober{cfg: cfg, start: time.Now()} }

// tick runs the probes that are due. Call it between operations.
func (p *prober) tick() error {
	n := p.cfg.setupProbes()
	for len(p.secs) < n {
		due := float64(len(p.secs)+1) / float64(n+1) * p.cfg.seconds
		if time.Since(p.start).Seconds() < due {
			return nil
		}
		if err := p.probe(); err != nil {
			return err
		}
	}
	return nil
}

// seconds runs the probes the run has not reached and returns the median
// wall time of all, from starting a probe to its exit.
func (p *prober) seconds() (float64, error) {
	for len(p.secs) < p.cfg.setupProbes() {
		if err := p.probe(); err != nil {
			return 0, err
		}
	}
	return median(p.secs), nil
}

func (p *prober) probe() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--workload", p.cfg.workload,
		"--seed", strconv.FormatInt(p.cfg.seed, 10), "--root", p.cfg.root)
	cmd.Env = append(os.Environ(), probeEnv+"=1")
	var output bytes.Buffer
	cmd.Stdout, cmd.Stderr = &output, &output
	t0 := time.Now()
	err = cmd.Run()
	p.secs = append(p.secs, time.Since(t0).Seconds())
	if err != nil {
		return fmt.Errorf("set-up probe: %v\n%s", err, output.String())
	}
	return nil
}

// kernelInputs builds every kernel's program and input image, the set-up
// common to all workloads.
func kernelInputs() error {
	for _, k := range kernels.All() {
		if _, _, err := k.Program(); err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		k.NewMemory(experiments.Seed)
	}
	return nil
}

// rounds calls round(i) for i = 0, 1, ... so that every run attempts whole
// rounds of the same operations: it runs at least minRounds rounds (exactly
// one in tiny mode) and then starts another only while the mean round time
// so far says it would end within the measured time. It returns the count.
func rounds(cfg config, minRounds int, round func(i int) error) (int, error) {
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	n := 0
	for {
		elapsed := time.Since(start)
		switch {
		case cfg.tiny && n >= 1:
			return n, nil
		case !cfg.tiny && n >= minRounds && elapsed+elapsed/time.Duration(n) > budget:
			return n, nil
		}
		if err := round(n); err != nil {
			return n, err
		}
		n++
	}
}
