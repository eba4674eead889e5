package main

import (
	"context"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// span is one timed interval of a traced run: the set-up or a pass, a cell
// within a pass, or a call into a layer within a cell.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // -1 for a root span
	Cell   string  `json:"cell"`   // "" outside a cell
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// passStats accumulates one pass over a workload's cells (or its set-up).
type passStats struct {
	// callTime is the summed duration of the timed calls, the self time
	// behind simnet.events_per_s; callCPU is the process CPU time they
	// used. cellTime and cellCPU split them by cell.
	callTime, callCPU time.Duration
	cellTime, cellCPU []time.Duration
	// layer holds span durations and allocation deltas per layer metric
	// (traced passes only).
	layer map[string]float64
	// counts holds the simulation's deterministic counters.
	counts map[string]float64
}

// recorder times the benchmark's calls into the simulator's layers. Untraced
// it only sums call durations; traced it also labels each call for the CPU
// profile, records spans and measures allocation deltas.
type recorder struct {
	workload string
	traced   bool
	epoch    time.Time
	spans    []span
	parent   int    // enclosing span, -1 at the root
	cell     string // current cell name
	pass     *passStats
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now(), parent: -1}
}

// begin starts a pass (or the set-up) named name and makes it current.
func (r *recorder) begin(name string) *passStats {
	r.pass = &passStats{layer: map[string]float64{}, counts: map[string]float64{}}
	r.parent = -1
	r.cell = ""
	if r.traced {
		r.parent = r.open(name)
	}
	return r.pass
}

// finish closes the current pass's span.
func (r *recorder) finish() {
	if r.traced && r.parent >= 0 {
		r.close(r.parent)
	}
	r.parent = -1
}

// inCell runs one cell of the current pass under its own span.
func (r *recorder) inCell(name string, body func()) {
	r.cell = name
	defer func() { r.cell = "" }()
	if !r.traced {
		body()
		return
	}
	outer := r.parent
	r.parent = r.open("cell")
	defer func() {
		r.close(r.parent)
		r.parent = outer
	}()
	body()
}

// call times one call into a layer. timeMetric receives its duration and
// layer names the <layer>.alloc_mb and <layer>.mallocs deltas.
func (r *recorder) call(fn, timeMetric, layer string, body func()) {
	// The CPU clock is read outside the wall-clock interval, so its system
	// calls cost the timed call nothing.
	if !r.traced {
		c0 := processCPU()
		t0 := time.Now()
		body()
		r.pass.callTime += time.Since(t0)
		r.pass.callCPU += processCPU() - c0
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := r.open(fn)
	c0 := processCPU()
	t0 := time.Now()
	pprof.Do(context.Background(), pprof.Labels("workload", r.workload, "call", fn), func(context.Context) { body() })
	d := time.Since(t0)
	r.pass.callCPU += processCPU() - c0
	r.close(id)
	runtime.ReadMemStats(&after)
	r.pass.callTime += d
	r.pass.layer[timeMetric] += d.Seconds()
	r.pass.layer[layer+".alloc_mb"] += float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	r.pass.layer[layer+".mallocs"] += float64(after.Mallocs - before.Mallocs)
}

// count adds v to one of the pass's deterministic counters.
func (r *recorder) count(name string, v float64) { r.pass.counts[name] += v }

// processCPU is the user plus system CPU time of every thread of the
// process so far: the caller's and the garbage collector's alike.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r *recorder) open(name string) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: r.parent, Cell: r.cell, Start: time.Since(r.epoch).Seconds()})
	return id
}

func (r *recorder) close(id int) { r.spans[id].End = time.Since(r.epoch).Seconds() }
