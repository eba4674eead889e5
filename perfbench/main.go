// Command perfbench is the simulator's benchmark. It runs one workload —
// authority, distribution or campaign — from one process, one cell at a
// time, and times only the calls into the layers' public functions.
//
//	perfbench --workload authority --seed 1 --seconds 20 --trace 0
//
// An untraced run (--trace 0) measures the end-to-end metrics: the cold
// set-up (median of several fresh processes), the wall and CPU time of one
// pass over the workload's cells, peak resident memory and the share of
// cells that pass their output checks. A traced run (--trace 1) runs the same
// cells untraced and then traced — pprof labels, spans, allocation deltas
// and a CPU profile — and prints the per-layer metrics. Both runs check
// every cell's simulated outputs and print each cell's output digest; the
// last line of standard output is the JSON result. DESIGN.md explains the
// workloads and what each metric should move.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"partialtor/internal/simnet"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	scale    scale
	// probes is how many fresh processes repeat the cold set-up for
	// setup_s, beside the run's own.
	probes   int
	traceDir string
}

// minPasses bounds the passes of an untraced run from below, so wall_s is
// always a median of several.
const minPasses = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: authority, distribution or campaign")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes its spans and CPU profile")
	probe := fs.Bool("setup-probe", false, "only perform the workload's cold set-up and print its seconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 0 {
		return fmt.Errorf("--seconds must not be negative, got %v", *seconds)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		scale:    paperScale,
		probes:   8,
		traceDir: *traceDir,
	}
	if *probe {
		_, st, err := setUp(cfg, newRecorder(cfg.workload))
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, strconv.FormatFloat(st.callTime.Seconds(), 'g', -1, 64))
		return nil
	}
	rep, err := run(cfg, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// setUp performs the workload's cold one-time build through rec. It returns
// the cells every pass runs and the set-up's timings.
func setUp(cfg config, rec *recorder) ([]cell, *passStats, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	st := rec.begin("setup")
	cells, err := w.prepare(rec, cfg.scale, cfg.seed)
	rec.finish()
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	return cells, st, nil
}

// probeSetup repeats the cold set-up in a fresh process: the simulator
// memoizes its inputs for the life of a process, so only a new one measures
// the set-up cold again.
func probeSetup(cfg config) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--setup-probe", "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return time.Duration(s * float64(time.Second)), nil
}

// passResult is one pass over the workload's cells.
type passResult struct {
	traced  bool
	stats   *passStats
	digests []string // per cell, in cell order
	errs    []error  // per cell: nil, or the failed output check
}

func runPass(rec *recorder, cells []cell, traced bool) passResult {
	rec.traced = traced
	pr := passResult{traced: traced, stats: rec.begin("pass")}
	for _, c := range cells {
		// Start every cell from a collected heap, so the garbage one cell
		// leaves behind is not collected on the next cell's time.
		runtime.GC()
		var text string
		var err error
		ev, t0, c0 := simnet.GlobalSteps(), pr.stats.callTime, pr.stats.callCPU
		rec.inCell(c.name, func() { text, err = c.run(rec) })
		events := simnet.GlobalSteps() - ev
		pr.stats.cellTime = append(pr.stats.cellTime, pr.stats.callTime-t0)
		pr.stats.cellCPU = append(pr.stats.cellCPU, pr.stats.callCPU-c0)
		rec.count("simnet.events", float64(events))
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s\nevents=%d\n", text, events)))
		pr.digests = append(pr.digests, fmt.Sprintf("%x", sum))
		pr.errs = append(pr.errs, err)
	}
	rec.finish()
	return pr
}

func run(cfg config, stdout io.Writer) (*report, error) {
	rec := newRecorder(cfg.workload)
	rec.traced = cfg.trace
	cells, setup, err := setUp(cfg, rec)
	if err != nil {
		return nil, err
	}
	setups := []float64{setup.callTime.Seconds()}
	if !cfg.trace {
		for i := 0; i < cfg.probes; i++ {
			d, err := probeSetup(cfg)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
	}

	// An untraced run measures for the whole budget. A traced run spends
	// the first half untraced, for the overhead baseline and the
	// traced-versus-untraced digest check, and the rest under the profiler.
	var passes []passResult
	start := time.Now()
	untracedBudget := cfg.seconds
	if cfg.trace {
		untracedBudget = cfg.seconds / 2
	}
	for len(passes) < 1 || time.Since(start) < untracedBudget || (!cfg.trace && len(passes) < minPasses) {
		passes = append(passes, runPass(rec, cells, false))
	}
	var prof bytes.Buffer
	if cfg.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		for n := 0; n < 1 || time.Since(start) < cfg.seconds; n++ {
			passes = append(passes, runPass(rec, cells, true))
		}
		pprof.StopCPUProfile()
	}

	rep := &report{Metrics: map[string]metricValue{}}
	for i, c := range cells {
		failed := 0
		for _, p := range passes {
			rep.Attempted++
			switch {
			case p.errs[i] != nil:
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: cell %s: %v\n", c.name, p.errs[i])
			case p.digests[i] != passes[0].digests[i]:
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: cell %s: outputs differ between passes (traced=%v)\n", c.name, p.traced)
			}
		}
		rep.Failed += failed
		fmt.Fprintf(stdout, "cell %-22s digest %s failed %d/%d\n", c.name, passes[0].digests[i], failed, len(passes))
	}
	rep.Correct = rep.Failed == 0

	if !cfg.trace {
		rep.Metrics["setup_s"] = metricValue{median(setups), "s"}
		rep.Metrics["wall_s"] = metricValue{passTime(passes, false, wallOf), "s"}
		rep.Metrics["cpu_s"] = metricValue{passTime(passes, false, cpuOf), "s"}
		rep.Metrics["peak_rss_mb"] = metricValue{peakRSSMB(), "MB"}
		rep.Metrics["pass_ratio"] = metricValue{float64(rep.Attempted-rep.Failed) / float64(rep.Attempted), "ratio"}
		return rep, nil
	}

	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	if samples == 0 {
		return nil, errors.New("the CPU profile holds no samples")
	}
	values := layerMetrics(setup, passes)
	for k, v := range shares {
		values[k] = v
	}
	values["trace.overhead_s"] = passTime(passes, true, wallOf) - passTime(passes, false, wallOf)
	for _, m := range perLayer {
		rep.Metrics[m.name] = metricValue{values[m.name], m.unit}
	}
	if err := writeTrace(cfg, rec.spans, prof.Bytes()); err != nil {
		return nil, err
	}
	return rep, nil
}

// layerMetrics derives the per-layer values: set-up spans from the set-up,
// everything else as the median over the traced passes.
func layerMetrics(setup *passStats, passes []passResult) map[string]float64 {
	perPass := map[string][]float64{}
	for _, p := range passes {
		if !p.traced {
			continue
		}
		v := map[string]float64{}
		for k, x := range p.stats.layer {
			v[k] = x
		}
		for k, x := range p.stats.counts {
			v[k] = x
		}
		v["simnet.events_per_s"] = p.stats.counts["simnet.events"] / p.stats.callTime.Seconds()
		if egress := p.stats.counts["dircache.cache_egress_mb"]; egress > 0 {
			v["dircache.race_waste_ratio"] = p.stats.counts["dircache.race_waste_mb"] / egress
		}
		for k, x := range v {
			perPass[k] = append(perPass[k], x)
		}
	}
	out := map[string]float64{}
	for k, xs := range perPass {
		out[k] = median(xs)
	}
	for _, k := range []string{"harness.inputs_s", "harness.new_experiment_s"} {
		out[k] = setup.layer[k]
	}
	return out
}

// passTime is the time of one pass over the cells (wall_s or cpu_s), summed
// from each cell's median over the passes, traced or not. A burst of host
// noise, or the first pass's heap growth, then moves no median.
func passTime(passes []passResult, traced bool, of func(*passStats) []time.Duration) float64 {
	var total float64
	for i := range of(passes[0].stats) {
		var xs []float64
		for _, p := range passes {
			if p.traced == traced {
				xs = append(xs, of(p.stats)[i].Seconds())
			}
		}
		total += median(xs)
	}
	return total
}

func wallOf(s *passStats) []time.Duration { return s.cellTime }
func cpuOf(s *passStats) []time.Duration  { return s.cellCPU }

// writeTrace writes a traced run's spans (JSON) and CPU profile (pprof; its
// samples carry the workload and call labels) under cfg.traceDir.
func writeTrace(cfg config, spans []span, prof []byte) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	js, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".spans.json", js, 0o644); err != nil {
		return err
	}
	return os.WriteFile(stem+".cpu.pprof", prof, 0o644)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
