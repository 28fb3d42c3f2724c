package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/cpu"
	"mesa/internal/experiments"
	"mesa/internal/genkern"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/mem"
	"mesa/internal/obs"
	"mesa/internal/sim"
)

// region is one program with a hot loop, the unit the per-layer replays
// time: the whole program for the interpreter and the CPU model, the loop
// body for the LDFG build and the mapping strategies.
type region struct {
	name     string
	prog     *isa.Program
	body     []isa.Inst
	mkMem    func() *mem.Memory
	maxSteps uint64
}

// loopBody returns the instructions of prog's innermost hot loop: from the
// target of its last backward branch through that branch.
func loopBody(prog *isa.Program) []isa.Inst {
	for i := len(prog.Insts) - 1; i >= 0; i-- {
		in := prog.Insts[i]
		if in.IsBackwardBranch() {
			return prog.Slice(in.BranchTarget(), in.Addr+4)
		}
	}
	return nil
}

// suiteKernels is the paper suite, cut to two kernels in tiny mode.
func suiteKernels(cfg config) []*kernels.Kernel {
	ks := kernels.All()
	if cfg.tiny {
		ks = ks[:2]
	}
	return ks
}

// kernelRegions is the suite's programs on their fixed input images.
func kernelRegions(cfg config) []region {
	var rs []region
	for _, k := range suiteKernels(cfg) {
		prog, loopStart, err := k.Program()
		if err != nil {
			continue
		}
		var end uint32
		for _, in := range prog.Insts {
			if in.IsBackwardBranch() && in.BranchTarget() == loopStart {
				end = in.Addr + 4
			}
		}
		k := k
		rs = append(rs, region{
			name: k.Name, prog: prog, body: prog.Slice(loopStart, end),
			mkMem:    func() *mem.Memory { return k.NewMemory(experiments.Seed) },
			maxSteps: experiments.MaxSteps,
		})
	}
	return rs
}

// layerStrategies are the mapping strategies the replays cover, with the
// metric name of each. `auto` is left out on purpose: it
// only delegates to the others.
var layerStrategies = []struct{ name, metric string }{
	{"greedy", "mapping.greedy_us"},
	{"greedy+anneal", "mapping.anneal_us"},
	{"congestion", "mapping.congestion_us"},
	{"modulo", "mapping.modulo_us"},
}

// replayLayers times calls into each layer's public functions over the
// workload's own regions, plus the kernel-specific layers over the suite,
// and adds the per-layer metrics to out.
func replayLayers(cfg config, tr *tracer, regions []region, out *outcome) error {
	if cfg.tiny && len(regions) > 2 {
		regions = regions[:2]
	}
	ks := suiteKernels(cfg)
	parent := tr.start(nil, "replay")
	defer parent.End()
	put := func(name string, v float64, unit string) { out.layers[name] = metric{v, unit} }

	// sim: interpreter construction plus the run, per instruction.
	var simNs, simInsts float64
	for _, r := range regions {
		m := r.mkMem()
		sp := tr.start(parent, "sim.Run "+r.name)
		t0 := time.Now()
		machine := sim.New(r.prog, m)
		n, err := machine.Run(r.maxSteps)
		simNs += float64(time.Since(t0).Nanoseconds())
		sp.End()
		if err != nil {
			return fmt.Errorf("sim replay %s: %w", r.name, err)
		}
		simInsts += float64(n)
	}
	put("sim.inst_ns", simNs/simInsts, "ns")

	// cpu: the OoO timing model, per retired instruction.
	var cpuNs, retired float64
	for _, r := range regions {
		m := r.mkMem()
		hier := mem.MustHierarchy(mem.DefaultHierarchy())
		sp := tr.start(parent, "cpu.Time "+r.name)
		t0 := time.Now()
		res, err := cpu.Time(cpu.DefaultBOOM(), r.prog, m, hier, r.maxSteps)
		cpuNs += float64(time.Since(t0).Nanoseconds())
		sp.End()
		if err != nil {
			return fmt.Errorf("cpu replay %s: %w", r.name, err)
		}
		retired += float64(res.Retired)
	}
	put("cpu.inst_ns", cpuNs/retired, "ns")

	// mem: a fresh default cache hierarchy, as every simulation builds one.
	const hierarchies = 200
	sp := tr.start(parent, "mem.NewHierarchy")
	t0 := time.Now()
	for i := 0; i < hierarchies; i++ {
		if _, err := mem.NewHierarchy(mem.DefaultHierarchy()); err != nil {
			return err
		}
	}
	put("mem.hierarchy_us", float64(time.Since(t0).Microseconds())/hierarchies, "us")
	sp.End()

	// kernels: input images and Go reference verification.
	var inputMs, verifyMs float64
	for _, k := range ks {
		prog, _, err := k.Program()
		if err != nil {
			return err
		}
		sp := tr.start(parent, "kernels.NewMemory "+k.Name)
		t0 := time.Now()
		m := k.NewMemory(experiments.Seed)
		inputMs += ms(time.Since(t0))
		sp.End()
		machine := sim.New(prog, m)
		if _, err := machine.Run(experiments.MaxSteps); err != nil {
			return err
		}
		sp = tr.start(parent, "kernels.Verify "+k.Name)
		t0 = time.Now()
		err = k.Verify(machine.Mem)
		verifyMs += ms(time.Since(t0))
		sp.End()
		if err != nil {
			out.problem("replay: %s fails its reference verifier: %v", k.Name, err)
		}
	}
	put("kernels.input_ms", inputMs/float64(len(ks)), "ms")
	put("kernels.verify_ms", verifyMs/float64(len(ks)), "ms")

	// core: LDFG build per region, then every mapping strategy per LDFG.
	be := accel.M128()
	var ldfgs []*core.LDFG
	var ldfgUs float64
	for _, r := range regions {
		if len(r.body) == 0 {
			continue
		}
		sp := tr.start(parent, "core.BuildLDFG "+r.name)
		t0 := time.Now()
		l, err := core.BuildLDFG(r.body, be.EstimateLat)
		ldfgUs += float64(time.Since(t0).Nanoseconds()) / 1e3
		sp.End()
		if err == nil {
			ldfgs = append(ldfgs, l)
		}
	}
	if len(ldfgs) == 0 {
		return fmt.Errorf("no region builds an LDFG")
	}
	put("core.ldfg_us", ldfgUs/float64(len(ldfgs)), "us")
	for _, s := range layerStrategies {
		strat, err := mapping.ByName(s.name)
		if err != nil {
			return err
		}
		var us float64
		for i, l := range ldfgs {
			sp := tr.start(parent, fmt.Sprintf("mapping.%s #%d", s.name, i))
			t0 := time.Now()
			_, _, err := strat.Map(l, be, mapping.DefaultOptions())
			us += float64(time.Since(t0).Nanoseconds()) / 1e3
			sp.End()
			if err != nil {
				out.problem("replay: %s cannot map region %d: %v", s.name, i, err)
			}
		}
		put(s.metric, us/float64(len(ldfgs)), "us")
	}

	// core: the whole controller per kernel on M-128 with greedy.
	var runMs float64
	for _, k := range ks {
		prog, loopStart, err := k.Program()
		if err != nil {
			return err
		}
		opts := core.DefaultOptions(accel.M128())
		if k.Parallel {
			opts.Detector.ParallelLoops = map[uint32]bool{loopStart: true}
		}
		m := k.NewMemory(experiments.Seed)
		hier := mem.MustHierarchy(mem.DefaultHierarchy())
		sp := tr.start(parent, "core.Controller.Run "+k.Name)
		t0 := time.Now()
		_, _, err = core.NewController(opts).Run(prog, m, hier, experiments.MaxSteps)
		runMs += ms(time.Since(t0))
		sp.End()
		if err != nil {
			return fmt.Errorf("controller replay %s: %w", k.Name, err)
		}
		if err := k.Verify(m); err != nil {
			out.problem("replay: %s on M-128 fails its reference verifier: %v", k.Name, err)
		}
	}
	put("core.run_ms", runMs/float64(len(ks)), "ms")

	// accel: one engine iteration of each kernel's hot loop.
	suite := kernelRegions(cfg)
	iterNs, allocs, replayed, err := replayEngine(tr, parent, suite)
	if err != nil {
		return err
	}
	out.line("accel replay: %d of %d kernel loops run standalone from their entry state: %s",
		len(replayed), len(suite), strings.Join(replayed, " "))
	put("accel.iter_ns", iterNs, "ns")
	put("accel.iter_allocs", allocs, "count")

	// genkern: program generation.
	gens := 200
	if cfg.tiny {
		gens = 5
	}
	sp = tr.start(parent, "genkern.Generate")
	t0 = time.Now()
	for i := 0; i < gens; i++ {
		if _, err := genkern.Generate(cfg.seed<<20+int64(i), genkern.DefaultMix()); err != nil {
			return err
		}
	}
	put("genkern.generate_us", float64(time.Since(t0).Nanoseconds())/1e3/float64(gens), "us")
	sp.End()
	return nil
}

// engineIters is how many iterations each kernel's engine is timed for;
// allocRuns is how many more it runs under testing.AllocsPerRun.
const (
	engineIters = 2000
	allocRuns   = 200
)

// replayEngine builds an accelerator engine for each kernel's hot loop from
// the architectural state at first loop entry and times RunIteration. It
// returns the mean ns per iteration, the mean over kernels of
// testing.AllocsPerRun (which pins GOMAXPROCS to 1 so that no other
// goroutine's allocations are counted) and the names of the kernels whose
// loop runs standalone, the ones both means are taken over.
func replayEngine(tr *tracer, parent *obs.Span, suite []region) (nsPerIter, allocsPerIter float64, replayed []string, err error) {
	var totalNs, totalAllocs, iters float64
	for _, r := range suite {
		eng, entry, ok := loopEngine(r)
		if !ok {
			continue
		}
		regs := entry
		if _, err := eng.RunIteration(&regs); err != nil {
			// The loop is not executable standalone from its entry state.
			continue
		}
		var runErr error
		step := func() {
			res, err := eng.RunIteration(&regs)
			if err != nil && runErr == nil {
				runErr = err
			}
			if !res.Continue {
				regs = entry
			}
		}
		sp := tr.start(parent, "accel.RunIteration "+r.name)
		t0 := time.Now()
		for i := 0; i < engineIters; i++ {
			step()
		}
		totalNs += float64(time.Since(t0).Nanoseconds())
		sp.End()
		totalAllocs += testing.AllocsPerRun(allocRuns, step)
		if runErr != nil {
			return 0, 0, nil, fmt.Errorf("engine replay %s: %w", r.name, runErr)
		}
		iters += engineIters
		replayed = append(replayed, r.name)
	}
	if iters == 0 {
		return 0, 0, nil, fmt.Errorf("no kernel loop runs standalone on the engine")
	}
	return totalNs / iters, totalAllocs / float64(len(replayed)), replayed, nil
}

// loopEngine maps r's hot loop greedily onto M-128 and returns an engine
// plus the register state at first loop entry, found by running the
// interpreter up to the loop head.
func loopEngine(r region) (*accel.Engine, [isa.NumRegs]uint32, bool) {
	var none [isa.NumRegs]uint32
	if len(r.body) == 0 {
		return nil, none, false
	}
	loopStart := r.body[0].Addr
	machine := sim.New(r.prog, r.mkMem())
	for steps := 0; machine.PC != loopStart; steps++ {
		if machine.Halted || steps > 1_000_000 {
			return nil, none, false
		}
		if err := machine.Step(); err != nil {
			return nil, none, false
		}
	}
	be := accel.M128()
	l, err := core.BuildLDFG(r.body, be.EstimateLat)
	if err != nil {
		return nil, none, false
	}
	s, _, err := mapping.Default().Map(l, be, mapping.DefaultOptions())
	if err != nil {
		return nil, none, false
	}
	eng, err := accel.NewEngine(be, l.Graph, s.Pos, l.LoopBranch, machine.Mem, mem.MustHierarchy(mem.DefaultHierarchy()))
	if err != nil {
		return nil, none, false
	}
	return eng, machine.Regs, true
}
