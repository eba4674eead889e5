package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs each workload once at reduced scale, untraced
// and traced, and checks that every output check passes and every metric
// prints with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				cfg := config{workload: w.name, seed: 1, trace: traced, scale: smokeScale, traceDir: t.TempDir()}
				var out bytes.Buffer
				rep, err := run(cfg, &out)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d\n%s", traced, rep.Correct, rep.Failed, rep.Attempted, out.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics printed, want %d", traced, len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %q", traced, m.name, got, m.unit)
					}
				}
				if traced {
					stem := filepath.Join(cfg.traceDir, w.name+"-seed1")
					for _, f := range []string{stem + ".spans.json", stem + ".cpu.pprof"} {
						if _, err := os.Stat(f); err != nil {
							t.Errorf("trace output: %v", err)
						}
					}
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's metric lists equal
// to the ones the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var progNames []string
	for _, w := range workloads {
		progNames = append(progNames, w.name)
	}
	if !slices.Equal(names, progNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, progNames)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit, Better string }
		prog []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", c.kind, len(c.json), len(c.prog))
			continue
		}
		for i, m := range c.prog {
			j := c.json[i]
			if j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.kind, i, j, m)
			}
		}
	}
}

// TestBucketPackagesExist fails when a package the CPU buckets name no
// longer exists, so a rename cannot silently move its samples to
// cpu.other_share.
func TestBucketPackagesExist(t *testing.T) {
	var pkgs []string
	for p := range packageBuckets {
		pkgs = append(pkgs, p)
	}
	slices.Sort(pkgs)
	out, err := exec.Command("go", append([]string{"list"}, pkgs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go list of the bucket packages: %v\n%s", err, out)
	}
	if got := strings.Fields(string(out)); !slices.Equal(got, pkgs) {
		t.Fatalf("go list printed %v, want %v", got, pkgs)
	}
}

// TestCPUSharesAttributeSHA256 profiles a SHA-256 loop and checks the
// decoder puts it in cpu.sha256_share.
func TestCPUSharesAttributeSHA256(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	buf := make([]byte, 1<<16)
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 {
		t.Skipf("only %d samples", samples)
	}
	if shares["cpu.sha256_share"] < 0.5 {
		t.Fatalf("sha256 share %.2f of %d samples, want most of them: %v", shares["cpu.sha256_share"], samples, shares)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v", sum)
	}
}

// TestBucketRules pins the attribution order: GC, then malloc, then the
// leaf package.
func TestBucketRules(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"crypto/internal/fips140/sha256.blockSHANI", "partialtor/internal/vote.(*Document).Digest"}, "cpu.sha256_share"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "partialtor/internal/simnet.(*pipe).allocate"}, "cpu.malloc_share"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "cpu.gc_share"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "cpu.gc_share"},
		{[]string{"partialtor/internal/hotstuff.(*Replica).handleDecide"}, "cpu.protocol_share"},
		{[]string{"runtime.memmove", "partialtor/internal/vote.Aggregate"}, "cpu.runtime_share"},
		{[]string{"cmpbody", "partialtor/internal/vote.popular"}, "cpu.runtime_share"},
		{[]string{"partialtor/internal/renamed.F"}, "cpu.other_share"},
		{nil, "cpu.other_share"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
