package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/event"
	"repro/internal/mem"
	"repro/internal/osmodel"
	"repro/internal/prog"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/tenant"
	"repro/internal/vpc"
	"repro/internal/workloads"
)

// lifeguards are the paper's three lifeguards, one dispatch metric each.
var lifeguards = []string{"AddrCheck", "LockSet", "TaintCheck"}

// layerMetrics lists the per-layer metrics every traced run reports
// besides the tracing overhead; BENCHMARK.json names the same set.
var layerMetrics = func() []metricDef {
	l := []metricDef{
		{"workloads.build_ms", "ms"},
		{"runner.baseline_ms", "ms"},
		{"core.profile_ms", "ms"},
		{"cpu.ns_per_instr", "ns"},
		{"capture.ns_per_record", "ns"},
		{"vpc.ns_per_record", "ns"},
	}
	for _, lg := range lifeguards {
		l = append(l, metricDef{"dispatch.ns_per_record." + lg, "ns"})
	}
	l = append(l, []metricDef{
		{"core.allocs_per_record", "count"},
		{"tenant.encode_ns_per_step", "ns"},
		{"tenant.replay_share", "ratio"},
		{"vpc.bytes_per_record", "B"},
		{"tenant.encode_bytes_per_step", "B"},
	}...)
	for _, pol := range tenant.Policies() {
		l = append(l, metricDef{"tenant.replay_ns_per_record." + pol, "ns"})
	}
	return append(l, []metricDef{
		{"tenant.replay_allocs", "count"},
		{"tenant.shard2_speedup", "x"},
		{"runner.profile_memo_hit_ratio", "ratio"},
		{"tenant.plan_ms", "ms"},
		{"tenant.plan_probes", "count"},
		{"serve.store_append_ms", "ms"},
		{"serve.evict_p50_ms", "ms"},
		{"serve.read_service_ms", "ms"},
		{"serve.replay_useful_ratio", "ratio"},
		{"serve.stale_read_share", "ratio"},
		{"serve.admitted", "count"},
		{"serve.rejected", "count"},
		{"serve.evicted", "count"},
		{"generator.late_p95_ms", "ms"},
		{"process.rss_p95_mb", "MB"},
	}...)
}()

// layerDefs lists every per-layer metric of a traced run whose workload
// has the end-to-end metrics e2e: the layer figures, then the tracing
// overhead of each end-to-end metric.
func layerDefs(e2e []metricDef) []metricDef {
	l := append([]metricDef(nil), layerMetrics...)
	for _, u := range e2e {
		l = append(l, metricDef{"trace.overhead." + u.name, u.unit})
	}
	return l
}

// probeReps is how many times each layer probe repeats; the reported
// figure is the median repetition.
const probeReps = 3

// runProbes times each layer through its public functions and adds the
// per-layer metrics to lm. The profiling layers are probed on the
// cold-suite population of the seed's variant whatever the workload; the
// replay layer on the workload's own population; the serving layers on
// the workload's own daemon session, or for the two simulator workloads
// on a short session of the lbad-mixed schedule. It returns the
// operations a probe session attempted and its output check failures.
func runProbes(b *bench, tr *tracer, ph *phase, lm map[string]float64) (int, []string, error) {
	ctx := context.Background()
	v := variantOf(b.seed)
	if err := probeProfiling(ctx, tr, coldPopulation(v), lm); err != nil {
		return 0, nil, fmt.Errorf("profiling probe: %w", err)
	}
	if err := probeColdShare(ctx, tr, coldPopulation(v), lm); err != nil {
		return 0, nil, fmt.Errorf("cold-pass probe: %w", err)
	}

	var attempted int
	var errs []string
	run := ph.lbad
	if run == nil {
		sess := &phase{}
		r, err := lbadSession(b, tr, 1, sess)
		if err != nil {
			return 0, nil, fmt.Errorf("lbad probe session: %w", err)
		}
		fillLbadPhase(sess, r)
		attempted, errs = sess.attempted, sess.errs
		for k, v := range sess.layers {
			lm[k] = v
		}
		run = r
	}
	rep, err := probeReplica(ctx, tr, run, lm)
	if err != nil {
		return 0, nil, fmt.Errorf("planner probe: %w", err)
	}
	if b.workload == "lbad-mixed" {
		// The daemon's engine is private; its memo behaviour is measured
		// on a replica that re-simulates every population the audit log
		// implies, as the daemon's replay loop does.
		lm["runner.profile_memo_hit_ratio"] = rep.hitRatio
	}

	var replayPop []tenant.Tenant
	switch b.workload {
	case "cold-suite":
		replayPop = coldPopulation(v)
	case "warm-replay":
		replayPop = warmPopulation(v)
	default:
		if replayPop, err = tenant.FromSuite(rep.maxPop+1, daemonWorkload(lbadConfig()), core.DefaultConfig()); err != nil {
			return 0, nil, err
		}
	}
	if err := probeReplay(ctx, tr, replayPop, lm); err != nil {
		return 0, nil, fmt.Errorf("replay probe: %w", err)
	}
	if err := probeStore(b, tr, lm); err != nil {
		return 0, nil, fmt.Errorf("store probe: %w", err)
	}
	return attempted, errs, nil
}

// nopObserver discards the transport timeline, so ProfileLBA runs
// without the tenant package's timeline encoder.
type nopObserver struct{}

func (nopObserver) Record(appCycle, bits, lgCost uint64) {}
func (nopObserver) Syscall(appCycle uint64)              {}

// newMachine wires a program into an application machine the way the
// core package does, without any hook attached.
func newMachine(cfg core.Config, p *prog.Program) *osmodel.Machine {
	memory := mem.NewMemory()
	hier := mem.NewHierarchy(mem.DefaultHierarchyConfig(2))
	kernel := osmodel.NewKernel(cfg.Kernel, memory)
	return osmodel.NewMachine(cfg.Machine, p, memory, hier.Port(0), kernel)
}

// profTotals accumulates one repetition of the profiling probe.
type profTotals struct {
	dur   map[string]int64 // span name -> summed ns
	units map[string]int64 // span name -> summed work units
	count map[string]int64
	// Model outputs and counts that are not times.
	allocs, records, logBits, steps, tlBytes int64
}

func (pt *profTotals) add(s span) {
	pt.dur[s.Name] += s.dur()
	pt.units[s.Name] += s.Units
	pt.count[s.Name]++
}

// probeProfiling times every profiling layer on each tenant:
//   - workloads.Build, runner.Engine.Run (unmonitored baseline, fresh
//     runner so nothing is memoized), core.ProfileLBA with a no-op
//     observer, and tenant.Engine.Profile on a fresh engine;
//   - the application machine alone, and again with the capture unit
//     feeding a counting sink: capture's cost per record is the
//     difference of the two runs (accumulated, not sampled);
//   - vpc.Compressor.Append and dispatch.Engine.Dispatch (dispatch,
//     lifeguard handlers and shadow memory) over the recorded record
//     stream, each in one accumulated loop.
//
// The timeline encoder cannot be called on its own, so its cost per
// step is Engine.Profile minus the build, the baseline and ProfileLBA.
func probeProfiling(ctx context.Context, tr *tracer, pop []tenant.Tenant, lm map[string]float64) error {
	per := map[string][]float64{}
	for rep := 0; rep < probeReps; rep++ {
		pt := &profTotals{dur: map[string]int64{}, units: map[string]int64{}, count: map[string]int64{}}
		for _, t := range pop {
			if err := profileTenant(ctx, tr, t, pt); err != nil {
				return err
			}
		}
		ns := func(name string) float64 { return float64(pt.dur[name]) }
		perCall := func(name string) float64 { return ns(name) / float64(pt.count[name]) / 1e6 }
		perUnit := func(name string) float64 { return ns(name) / float64(pt.units[name]) }
		per["workloads.build_ms"] = append(per["workloads.build_ms"], perCall("workloads.Build"))
		per["runner.baseline_ms"] = append(per["runner.baseline_ms"], perCall("runner.Engine.Run"))
		per["core.profile_ms"] = append(per["core.profile_ms"], perCall("core.ProfileLBA"))
		per["cpu.ns_per_instr"] = append(per["cpu.ns_per_instr"], perUnit("osmodel.Machine.Run"))
		per["capture.ns_per_record"] = append(per["capture.ns_per_record"],
			(ns("capture.Unit+osmodel.Machine.Run")-ns("osmodel.Machine.Run"))/float64(pt.units["capture.Unit+osmodel.Machine.Run"]))
		per["vpc.ns_per_record"] = append(per["vpc.ns_per_record"], perUnit("vpc.Compressor.Append"))
		for _, lg := range lifeguards {
			k := "dispatch.ns_per_record." + lg
			per[k] = append(per[k], perUnit("dispatch.Engine.Dispatch/"+lg))
		}
		per["core.allocs_per_record"] = append(per["core.allocs_per_record"], float64(pt.allocs)/float64(pt.records))
		encode := ns("tenant.Engine.Profile/cold") - ns("workloads.Build") - ns("runner.Engine.Run") - ns("core.ProfileLBA")
		per["tenant.encode_ns_per_step"] = append(per["tenant.encode_ns_per_step"], encode/float64(pt.steps))
		per["vpc.bytes_per_record"] = append(per["vpc.bytes_per_record"], float64(pt.logBits)/8/float64(pt.records))
		per["tenant.encode_bytes_per_step"] = append(per["tenant.encode_bytes_per_step"], float64(pt.tlBytes)/float64(pt.steps))
	}
	for k, xs := range per {
		lm[k] = median(xs)
	}
	return nil
}

// profileTenant runs one tenant through every profiling layer once.
func profileTenant(ctx context.Context, tr *tracer, t tenant.Tenant, pt *profTotals) error {
	spec, err := workloads.ByName(t.Benchmark)
	if err != nil {
		return err
	}
	root := tr.start("probe.profile "+t.Name, 0, 0)
	defer root.end(0)
	timed := func(name string, units func() int64, fn func() error) error {
		sp := tr.start(name, root.id(), 0)
		err := fn()
		sp.end(units())
		if err == nil {
			pt.add(sp.sp)
		}
		return err
	}
	one := func() int64 { return 1 }

	var p *prog.Program
	if err := timed("workloads.Build", one, func() error { p = spec.Build(t.Workload); return nil }); err != nil {
		return err
	}
	var base *core.Result
	if err := timed("runner.Engine.Run", one, func() (err error) {
		base, err = runner.New(1).Run(ctx, runner.Job{Benchmark: t.Benchmark, Mode: core.ModeUnmonitored,
			Workload: t.Workload, Config: t.Config})
		return err
	}); err != nil {
		return err
	}

	m := newMachine(t.Config, p)
	if err := timed("osmodel.Machine.Run", func() int64 { return int64(m.Core.Retired) }, m.Run); err != nil {
		return err
	}
	if m.Core.Retired != base.Instructions {
		return fmt.Errorf("%s: bare machine retired %d instructions, the baseline %d", t.Name, m.Core.Retired, base.Instructions)
	}
	var n int64
	m = newMachine(t.Config, p)
	cu := capture.New(func(event.Record) { n++ })
	m.Core.OnRetire, m.Kernel.Emit = cu.OnRetire, cu.OnKernelEvent
	if err := timed("capture.Unit+osmodel.Machine.Run", func() int64 { return n }, m.Run); err != nil {
		return err
	}

	recs := make([]event.Record, 0, n)
	m = newMachine(t.Config, p)
	cu = capture.New(func(r event.Record) { recs = append(recs, r) })
	m.Core.OnRetire, m.Kernel.Emit = cu.OnRetire, cu.OnKernelEvent
	if err := m.Run(); err != nil {
		return err
	}
	comp := vpc.NewCompressor()
	if err := timed("vpc.Compressor.Append", func() int64 { return int64(len(recs)) }, func() error {
		for i := range recs {
			comp.Append(recs[i])
		}
		return nil
	}); err != nil {
		return err
	}
	factory, err := core.Factory(t.Lifeguard)
	if err != nil {
		return err
	}
	hier := mem.NewHierarchy(mem.DefaultHierarchyConfig(2))
	meter := &dispatch.CoreMeter{Port: hier.Port(1)}
	de := dispatch.New(t.Config.Dispatch, meter)
	de.Attach(factory(meter))
	if err := timed("dispatch.Engine.Dispatch/"+t.Lifeguard, func() int64 { return int64(len(recs)) }, func() error {
		for i := range recs {
			de.Dispatch(&recs[i])
		}
		return nil
	}); err != nil {
		return err
	}

	var res *core.Result
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := timed("core.ProfileLBA", func() int64 { return int64(res.Records) }, func() (err error) {
		res, err = core.ProfileLBA(p, t.Lifeguard, t.Config, nopObserver{})
		return err
	}); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	pt.allocs += int64(ms1.Mallocs - ms0.Mallocs)
	pt.records += int64(res.Records)
	pt.logBits += int64(res.LogBits)

	var prof *tenant.Profile
	if err := timed("tenant.Engine.Profile/cold", func() int64 { return int64(prof.Steps()) }, func() (err error) {
		prof, err = tenant.NewEngine(1, nil).Profile(ctx, t)
		return err
	}); err != nil {
		return err
	}
	pt.steps += int64(prof.Steps())
	pt.tlBytes += int64(prof.TimelineBytes())
	return nil
}

// probeColdShare measures the share of a cold pass spent in replay: a
// cold RunPool on a fresh engine against a second, warm RunPool of the
// same population.
func probeColdShare(ctx context.Context, tr *tracer, pop []tenant.Tenant, lm map[string]float64) error {
	var shares []float64
	for rep := 0; rep < probeReps; rep++ {
		eng := tenant.NewEngine(procs, nil)
		t0 := time.Now()
		sp := tr.start("tenant.Engine.RunPool/cold-probe", 0, 0)
		if _, err := eng.RunPool(ctx, pop, coldPool); err != nil {
			return err
		}
		sp.end(0)
		cold := time.Since(t0)
		t1 := time.Now()
		sp = tr.start("tenant.Engine.RunPool/warm-probe", 0, 0)
		if _, err := eng.RunPool(ctx, pop, coldPool); err != nil {
			return err
		}
		sp.end(0)
		shares = append(shares, time.Since(t1).Seconds()/cold.Seconds())
	}
	lm["tenant.replay_share"] = median(shares)
	return nil
}

// probeReplay times a warm RunPool of pop under every policy (migration
// penalty on) at one and two shards, once each, since a replay of a whole
// population is already hundreds of milliseconds of accumulated work; and
// counts the allocations of a least-lag replay.
func probeReplay(ctx context.Context, tr *tracer, pop []tenant.Tenant, lm map[string]float64) error {
	eng := tenant.NewEngine(procs, nil)
	if _, err := eng.RunPool(ctx, pop, coldPool); err != nil {
		return err
	}
	var s1, s2 float64
	for _, pool := range warmPools() {
		t0 := time.Now()
		sp := tr.start("tenant.Engine.RunPool/"+poolKey(pool), 0, 0)
		res, err := eng.RunPool(ctx, pop, pool)
		if err != nil {
			return err
		}
		n := records(res)
		sp.end(int64(n))
		d := time.Since(t0)
		if pool.Shards <= 1 {
			lm["tenant.replay_ns_per_record."+pool.Policy] = float64(d.Nanoseconds()) / float64(n)
			s1 += d.Seconds()
		} else {
			s2 += d.Seconds()
		}
	}
	lm["tenant.shard2_speedup"] = s1 / s2
	var allocs []float64
	for rep := 0; rep < probeReps; rep++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if _, err := eng.RunPool(ctx, pop, coldPool); err != nil {
			return err
		}
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
	}
	lm["tenant.replay_allocs"] = median(allocs)
	return nil
}

// replica is what the planner probe learned from a daemon session.
type replica struct {
	hitRatio float64
	maxPop   int
}

// probeReplica replays a daemon session's audit log on an engine outside
// the daemon. Every admission and eviction re-simulates the live
// population through RunPool, as the daemon's replay loop does, which
// measures the profile memo's hit ratio over the session's entries. Then
// PlanAdmissionQuery runs with the daemon's configuration once per
// admission decision of the session, at the population size that
// decision saw.
func probeReplica(ctx context.Context, tr *tracer, run *lbadRun, lm map[string]float64) (replica, error) {
	cfg := lbadConfig()
	eng := tenant.NewEngine(procs, nil)
	var ids []int
	byID := map[int]tenant.Tenant{}
	var memo memoCounter
	var decisions []int // population size at each admission decision of the session
	var rep replica
	for _, e := range run.entries {
		switch e.Op {
		case "admit":
			byID[e.TenantID] = tenant.Tenant{Name: e.Name, Benchmark: e.Benchmark,
				Lifeguard: tenant.DefaultLifeguard(e.Benchmark),
				Workload:  workloads.Config{Scale: cfg.Scale, Seed: e.Seed, Threads: cfg.Threads},
				Config:    core.DefaultConfig()}
			ids = append(ids, e.TenantID)
		case "evict":
			for i, id := range ids {
				if id == e.TenantID {
					ids = append(ids[:i], ids[i+1:]...)
					break
				}
			}
		}
		if e.Seq > run.seqStart && e.Op != "evict" {
			decisions = append(decisions, e.Population)
			rep.maxPop = max(rep.maxPop, e.Population)
		}
		if e.Op == "reject" || len(ids) == 0 {
			continue
		}
		pop := make([]tenant.Tenant, len(ids))
		for i, id := range ids {
			pop[i] = byID[id]
		}
		before := runnerLookups(eng)
		sp := tr.start("tenant.Engine.RunPool/replica", 0, int64(e.Seq))
		if _, err := eng.RunPool(ctx, pop, cfg.Pool); err != nil {
			return rep, err
		}
		sp.end(int64(len(pop)))
		if e.Seq > run.seqStart {
			memo.lookups += uint64(len(pop))
			memo.misses += runnerLookups(eng) - before
		}
	}
	rep.hitRatio = memo.ratio()

	var planMs, probes []float64
	for i, n := range decisions {
		t0 := time.Now()
		sp := tr.start("tenant.Engine.PlanAdmissionQuery", 0, int64(i+1))
		pts, err := eng.PlanAdmissionQuery(ctx, daemonWorkload(cfg), core.DefaultConfig(),
			tenant.AdmissionQuery{Pool: cfg.Pool, SLOs: []float64{cfg.SLO}, MaxTenants: n + 1})
		if err != nil {
			return rep, err
		}
		sp.end(int64(pts[0].Probes))
		planMs = append(planMs, since(t0))
		probes = append(probes, float64(pts[0].Probes))
	}
	if len(planMs) == 0 {
		return rep, fmt.Errorf("the session's audit log holds no admission decision")
	}
	lm["tenant.plan_ms"] = median(planMs)
	lm["tenant.plan_probes"] = mean(probes)
	return rep, nil
}

// probeStore times Store.Append, a synced JSONL append, on a scratch
// store on the same filesystem as the daemon's.
func probeStore(b *bench, tr *tracer, lm map[string]float64) error {
	dir, err := b.scratchDir("store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := serve.Open(dir)
	if err != nil {
		return err
	}
	var ms []float64
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		sp := tr.start("serve.Store.Append", 0, 0)
		_, err := st.Append(serve.AuditEntry{Op: "admit", TenantID: i + 1, Name: "bc", Benchmark: "bc",
			Seed: serve.DefaultSeed, Draw: i + 1, SLO: 5, Population: i, MaxTenants: i + 1})
		sp.end(1)
		if err != nil {
			st.Close()
			return err
		}
		ms = append(ms, since(t0))
	}
	if err := st.Close(); err != nil {
		return err
	}
	lm["serve.store_append_ms"] = median(ms)
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
