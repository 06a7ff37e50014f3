// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator and the lbad daemon, checks every
// output, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run) as one JSON object on its last line.
//
//	go run . --workload cold-suite --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and what each measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procs is the host parallelism the benchmark is sized for: engine
// workers, shards and HTTP connections never exceed it, so the figures
// measure the program rather than the Go scheduler.
const procs = 2

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is what one measured run of a workload yields: the end-to-end
// quantities before they are named, plus the operation counts and every
// output-check failure.
type phase struct {
	setupWall []float64 // wall seconds of each set-up repetition
	setupCPU  []float64 // process CPU seconds of each set-up repetition
	retainMB  float64   // live heap once the phase is over, after two collections
	rss       []float64 // resident set samples, MiB
	passes    int       // whole passes or rounds in the measured phase
	work      uint64    // work units done in the measured phase
	wallS     float64   // its wall seconds
	cpuS      float64   // its process CPU seconds
	workUnit  string
	attempted int
	failed    int
	errs      []string
	notes     []string // workload-specific report lines

	// lbad-mixed only: latencies in ms, from each request's due time.
	admit, read []float64

	// Layer-level figures the workload itself measures, keyed by
	// per-layer metric name (memo hit ratio, serve counters, ...).
	layers map[string]float64
	// lbad is the daemon session behind an lbad-mixed phase.
	lbad *lbadRun
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	p.errs = append(p.errs, fmt.Sprintf(format, args...))
}

// addSetup records one set-up repetition timed by w.
func (p *phase) addSetup(w watch) {
	wall, cpu := w.elapsed()
	p.setupWall = append(p.setupWall, wall)
	p.setupCPU = append(p.setupCPU, cpu)
}

// endWork closes the measured phase's clock: work units were done since
// w started.
func (p *phase) endWork(w watch, work uint64) {
	p.wallS, p.cpuS = w.elapsed()
	p.work = work
}

// metricDef is one metric and its unit.
type metricDef struct{ name, unit string }

// simE2E lists the end-to-end metrics of cold-suite and warm-replay, the
// gated workloads, in report order; BENCHMARK.json names the same set.
var simE2E = []metricDef{
	{"setup_s", "s"},
	{"heap_retained_mb", "MB"},
	{"work_per_s", "1/s"},
}

// lbadE2E lists the end-to-end metrics of lbad-mixed, which is not gated.
var lbadE2E = []metricDef{
	{"setup_s", "s"},
	{"heap_retained_mb", "MB"},
	{"admit_p50_ms", "ms"},
	{"admit_p90_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_p95_ms", "ms"},
}

// endToEnd names the phase's figures, the ones of defs. It fails when a
// latency has too few samples for its tail percentile.
func (p *phase) endToEnd(defs []metricDef) (map[string]float64, error) {
	m := map[string]float64{
		"setup_s":          median(p.setupWall),
		"heap_retained_mb": p.retainMB,
	}
	for _, d := range defs {
		switch d.name {
		case "work_per_s":
			m[d.name] = float64(p.work) / p.wallS
		case "admit_p50_ms", "admit_p90_ms":
			t, err := summarize(p.admit, 90)
			if err != nil {
				return nil, fmt.Errorf("admissions: %w", err)
			}
			m["admit_p50_ms"], m["admit_p90_ms"] = t.P50, t.Tail
		case "read_p50_ms", "read_p95_ms":
			t, err := summarize(p.read, 95)
			if err != nil {
				return nil, fmt.Errorf("reads: %w", err)
			}
			m["read_p50_ms"], m["read_p95_ms"] = t.P50, t.Tail
		}
	}
	return m, nil
}

// report prints the phase's end-to-end metrics with units and sample
// counts for a human reader.
func (p *phase) report(w io.Writer, label string, defs []metricDef, m map[string]float64) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d, failed_share %.4f\n", label, p.attempted, p.failed, share(p.failed, p.attempted))
	for _, d := range defs {
		fmt.Fprintf(w, "  %-17s %12.6g %-3s  ", d.name, m[d.name], d.unit)
		switch d.name {
		case "setup_s":
			fmt.Fprintf(w, "median of %d set-ups (CPU median %.4f s)\n", len(p.setupWall), median(p.setupCPU))
		case "heap_retained_mb":
			fmt.Fprintf(w, "resident set p95 %.2f MB, max %.2f MB (n=%d); process peak %.2f MB\n",
				percentile(p.rss, 95), slices.Max(p.rss), len(p.rss), peakRSSMB())
		case "work_per_s":
			fmt.Fprintf(w, "%s per second; %d passes in %.3f s, %.3f CPU s (%.4g per CPU second)\n",
				p.workUnit, p.passes, p.wallS, p.cpuS, float64(p.work)/p.cpuS)
		case "admit_p50_ms", "admit_p90_ms":
			fmt.Fprintf(w, "POST /v1/tenants from its due time, n=%d\n", len(p.admit))
		case "read_p50_ms", "read_p95_ms":
			fmt.Fprintf(w, "GET /v1/pool, /v1/tenants, /v1/metrics from the due time, n=%d\n", len(p.read))
		}
	}
	for _, n := range p.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, e := range p.errs {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", e)
	}
}

// settle collects the set-up's garbage and returns it to the OS, so the
// measured phase's resident set reflects its own working memory.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// endMeasure closes the measured phase: it stops the resident-set
// sampler and records the heap the program still holds once the phase's
// garbage is collected. keep is what the program retains (an engine, a
// daemon); it stays reachable until the measurement is taken.
func (p *phase) endMeasure(s *memSampler, keep any) {
	p.rss = s.end()
	p.retainMB = retainedHeapMB()
	runtime.KeepAlive(keep)
}

// retainedHeapMB collects twice (the second pass also drops what
// sync.Pool victim caches held) and reads the live heap in MiB.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

func share(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// bench is one invocation's settings and scratch space.
type bench struct {
	workload string
	seed     uint64
	seconds  int
	outDir   string // build-output directory under the checkout
	out      io.Writer
}

// scratchDir makes a fresh directory for one daemon store under outDir.
func (b *bench) scratchDir(tag string) (string, error) {
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(b.outDir, tag+"-")
}

type workloadSpec struct {
	name string
	run  func(b *bench, tr *tracer) (*phase, error)
	e2e  []metricDef
}

var workloadSpecs = []workloadSpec{
	{"cold-suite", runColdSuite, simE2E},
	{"warm-replay", runWarmReplay, simE2E},
	{"lbad-mixed", runLbadMixed, lbadE2E},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that completed and printed its result but
// whose output checks failed.
var errIncorrect = errors.New("output checks failed")

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: cold-suite | warm-replay | lbad-mixed")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds; a traced run splits them between its two phases, and lbad-mixed plays at least 50")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for stores and traces")
	writeExpect := fs.String("write-expect", "", "recompute the committed output digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runtime.GOMAXPROCS(procs)
	if *writeExpect != "" {
		return writeExpectations(*writeExpect)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1, got %d", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	var spec *workloadSpec
	for i := range workloadSpecs {
		if workloadSpecs[i].name == *name {
			spec = &workloadSpecs[i]
		}
	}
	if spec == nil {
		return fmt.Errorf("unknown --workload %q", *name)
	}
	if _, err := loadExpectations(); err != nil {
		return err
	}
	b := &bench{workload: *name, seed: *seed, seconds: *seconds, outDir: *outDir, out: out}

	res := result{Metrics: map[string]metric{}}
	if *traceFlag == 0 {
		ph, err := spec.run(b, nil)
		if err != nil {
			return err
		}
		e2e, err := ph.endToEnd(spec.e2e)
		if err != nil {
			return err
		}
		ph.report(out, b.workload+" (untraced)", spec.e2e, e2e)
		for _, u := range spec.e2e {
			res.Metrics[u.name] = metric{e2e[u.name], u.unit}
		}
		res.Attempted, res.Failed = ph.attempted, ph.failed
	} else {
		lm, att, failed, err := tracedRun(b, spec)
		if err != nil {
			return err
		}
		for _, l := range layerDefs(spec.e2e) {
			v, ok := lm[l.name]
			if !ok {
				return fmt.Errorf("traced run produced no %s", l.name)
			}
			res.Metrics[l.name] = metric{v, l.unit}
		}
		res.Attempted, res.Failed = att, failed
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// tracedRun measures the workload twice in one process — untraced, then
// with spans recorded at every layer boundary the benchmark calls — each
// for half of --seconds, and then runs the layer probes. It returns every
// per-layer metric, including the tracing overhead of each end-to-end
// metric.
func tracedRun(b *bench, spec *workloadSpec) (map[string]float64, int, int, error) {
	half := *b
	half.seconds = max(b.seconds/2, 1)
	plain, err := spec.run(&half, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	plainE2E, err := plain.endToEnd(spec.e2e)
	if err != nil {
		return nil, 0, 0, err
	}
	plain.report(b.out, b.workload+" (untraced)", spec.e2e, plainE2E)

	tr := newTracer()
	traced, err := spec.run(&half, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	tracedE2E, err := traced.endToEnd(spec.e2e)
	if err != nil {
		return nil, 0, 0, err
	}
	traced.report(b.out, b.workload+" (traced)", spec.e2e, tracedE2E)

	lm := map[string]float64{}
	for _, u := range spec.e2e {
		lm["trace.overhead."+u.name] = tracedE2E[u.name] - plainE2E[u.name]
	}
	for k, v := range traced.layers {
		lm[k] = v
	}
	lm["process.rss_p95_mb"] = percentile(traced.rss, 95)
	probeAttempted, probeErrs, err := runProbes(b, tr, traced, lm)
	if err != nil {
		return nil, 0, 0, err
	}

	rows := layerTable(tr.snapshot())
	fmt.Fprintln(b.out, "== per-layer spans (traced phase and probes)")
	printLayerTable(b.out, rows)
	path := filepath.Join(b.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", b.workload, b.seed))
	if err := tr.write(path); err != nil {
		return nil, 0, 0, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(b.out, "== spans written to %s\n", path)
	names := make([]string, 0, len(lm))
	for k := range lm {
		names = append(names, k)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, l := range layerDefs(spec.e2e) {
		units[l.name] = l.unit
	}
	fmt.Fprintln(b.out, "== per-layer metrics")
	for _, k := range names {
		fmt.Fprintf(b.out, "  %-44s %.6g %s\n", k, lm[k], units[k])
	}
	for _, e := range probeErrs {
		fmt.Fprintf(b.out, "  CHECK FAILED: %s\n", e)
	}
	attempted := plain.attempted + traced.attempted + probeAttempted
	failed := plain.failed + traced.failed + len(probeErrs)
	return lm, attempted, failed, nil
}

// memSampler samples the process's resident set every memPeriod while a
// phase is measured.
type memSampler struct {
	stop chan struct{}
	done chan struct{}
	rss  []float64 // MiB
}

const memPeriod = 5 * time.Millisecond

func startMem() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(memPeriod)
		defer tick.Stop()
		for {
			s.rss = append(s.rss, rssMB())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// end stops sampling and returns the samples.
func (s *memSampler) end() []float64 {
	close(s.stop)
	<-s.done
	return s.rss
}

// rssMB reads the current resident set from /proc/self/statm in MiB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// since reports the time elapsed since t0 in milliseconds.
func since(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// watch reads the wall clock and the process's CPU time together.
type watch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() watch { return watch{time.Now(), cpuTime()} }

// more reports whether another pass fits in s seconds of wall time after
// the n passes run since w started: the first always runs, and each later
// one only if, at the mean pass time so far, it ends in time.
func (w watch) more(s, n int) bool {
	if n == 0 {
		return true
	}
	el := time.Since(w.wall)
	return el+el/time.Duration(n) <= time.Duration(s)*time.Second
}

// elapsed returns the wall and the CPU seconds since w started.
func (w watch) elapsed() (wall, cpu float64) {
	return time.Since(w.wall).Seconds(), (cpuTime() - w.cpu).Seconds()
}

// cpuTime is the CPU time the process has used, user plus system, over
// all its threads (getrusage RUSAGE_SELF). The report prints it beside
// the wall-clock figures, to show how many of the two CPUs a phase kept
// busy.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
