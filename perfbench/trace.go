package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"mesa/internal/obs"
)

// tracer records spans from the benchmark's own code around every timed
// call into the program, keeps them in memory, and writes one Chrome trace
// at the end. A nil *tracer records nothing, so untraced runs pay one nil
// check per call.
type tracer struct {
	root  *obs.Span
	count atomic.Int64
}

func newTracer() *tracer {
	return &tracer{root: obs.StartSpan("perfbench")}
}

// start opens a span under parent (the run's root when parent is nil).
func (t *tracer) start(parent *obs.Span, name string) *obs.Span {
	if t == nil {
		return nil
	}
	if parent == nil {
		parent = t.root
	}
	t.count.Add(1)
	return parent.Child(name)
}

func (t *tracer) spans() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// write ends the root span and writes the trace as dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	t.root.End()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := t.root.WriteTrace(f, "perfbench"); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
