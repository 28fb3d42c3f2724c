package main

import (
	"runtime"
	"time"
)

// The shared host the benchmark was tuned on drifts in speed by 10–30% over
// minutes, and a run's medians drift with it. A loop of pure integer
// arithmetic, timed in the same runs, slowed and sped up with them:
// dividing by it cut the spread of five runs' median serial sweeps from
// 14–27% to 5–18%. So every run times that loop next to its operations,
// and the timing metrics are scaled to a host on which the loop takes
// probeNominalMS; the report prints the raw figures.

// probeIters is the length of the probe loop, about 55–65 ms on the host the
// README names.
const probeIters = 25_000_000

// probeNominalMS is the probe time the timing metrics are scaled to.
const probeNominalMS = 60.0

var probeSink uint64

// probeHost times the probe loop once, in milliseconds. The loop touches no
// memory, allocates nothing and calls nothing of the program under test, so
// no change to the program can move it.
func probeHost() float64 {
	t0 := time.Now()
	x := probeSink | 1
	for i := 0; i < probeIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	probeSink = x
	return ms(time.Since(t0))
}

// hostScale takes a time measured in this run to the nominal host: the
// nominal probe time over the median of the run's probe times. Multiply
// times by it and divide rates by it.
func hostScale(probes []float64) float64 { return probeNominalMS / median(probes) }

// retainedMB collects the heap and returns the live heap in MB: what the
// process holds at that point, chiefly the simulation cache. It forces a
// garbage collection, which callers keep out of their timings and out of
// go.gc_cycles.
func retainedMB() float64 {
	runtime.GC()
	return float64(readMem().HeapAlloc) / 1e6
}
