package main

import (
	"context"
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/tenant"
	"repro/internal/workloads"
)

// simScale is the workload scale of every simulated tenant, the lbad
// daemon's included: the daemon's own default. Below about 107k the w3m,
// gzip and tidy generators sit at their size floors, so a tenant's
// fixed prologue would weigh more than it does in served traffic.
const simScale = serve.DefaultScale

// variants is how many distinct tenant populations a seed can select;
// the output digests of all of them are committed in expect.json.
const variants = 8

// variantOf maps a benchmark seed to a population variant.
func variantOf(seed uint64) int { return int(seed % variants) }

// suiteWorkload is the workload configuration of variant v: the seeds
// are spaced wider than FromSuite's per-round offsets, so variants never
// share a tenant.
func suiteWorkload(v int) workloads.Config {
	return workloads.Config{Scale: simScale, Seed: 0xB5EED + uint64(v)*100}
}

// coldPopulation is the nine-benchmark suite plus one TaintCheck tenant,
// so all three of the paper's lifeguards run.
func coldPopulation(v int) []tenant.Tenant {
	w := suiteWorkload(v)
	pop, err := tenant.FromSuite(9, w, core.DefaultConfig())
	if err != nil {
		panic(err) // n is a positive constant
	}
	return append(pop, tenant.Tenant{Name: "w3m/taint", Benchmark: "w3m", Lifeguard: "TaintCheck",
		Workload: w, Config: core.DefaultConfig()})
}

// warmPopulation is two rounds of the suite.
func warmPopulation(v int) []tenant.Tenant {
	pop, err := tenant.FromSuite(18, suiteWorkload(v), core.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return pop
}

// coldPool is the 2-core least-lag pool a cold pass replays on.
var coldPool = tenant.PoolConfig{Cores: procs, Policy: tenant.PolicyLeastLag}

// migrationPenalty matches the replay ledger's suite (BENCH_replay.json).
const migrationPenalty = 320

// warmPools is every policy with the migration penalty on, at one and
// two shards.
func warmPools() []tenant.PoolConfig {
	var pools []tenant.PoolConfig
	for _, pol := range tenant.Policies() {
		for shards := 1; shards <= procs; shards++ {
			pools = append(pools, tenant.PoolConfig{Cores: procs, Policy: pol,
				MigrationPenalty: migrationPenalty, Shards: shards})
		}
	}
	return pools
}

func poolKey(p tenant.PoolConfig) string {
	return fmt.Sprintf("%s/s%d/p%d", p.Policy, max(p.Shards, 1), p.MigrationPenalty)
}

// setupReps is how many times every workload sets up; setup_s is the
// median and the measured phase uses the last.
const setupReps = 5

// memoCounter measures the profile memo's hit ratio from outside: every
// tenant an engine call names is one lookup, and every miss runs exactly
// one baseline through the engine's runner, so the runner's lookup count
// grows by the number of misses.
type memoCounter struct{ lookups, misses uint64 }

func runnerLookups(e *tenant.Engine) uint64 { return e.Runner().CacheHits() + e.Runner().CacheMisses() }

func (m *memoCounter) ratio() float64 {
	if m.lookups == 0 {
		return 0
	}
	return 1 - float64(m.misses)/float64(m.lookups)
}

// readProfiles reads every tenant's profile back from the engine (a memo
// hit) and digests what it read.
func readProfiles(ctx context.Context, eng *tenant.Engine, pop []tenant.Tenant, tr *tracer, parent, req int64) (string, error) {
	profs := make([]*tenant.Profile, len(pop))
	for i, t := range pop {
		sp := tr.start("tenant.Engine.Profile/read", parent, req)
		p, err := eng.Profile(ctx, t)
		sp.end(1)
		if err != nil {
			return "", err
		}
		profs[i] = p
	}
	return profileDigest(profs), nil
}

// runColdSuite is the cold-suite workload: every pass builds a fresh
// engine with two workers, so it profiles (baseline, ProfileLBA, timeline
// encoding) and replays all ten tenants from scratch. The measured phase
// runs as many whole passes as fit in --seconds.
func runColdSuite(b *bench, tr *tracer) (*phase, error) {
	ctx := context.Background()
	v := variantOf(b.seed)
	pop := coldPopulation(v)
	want := expected["cold-suite"][fmt.Sprint(v)]
	ph := &phase{workUnit: "simulated instructions profiled and replayed"}
	var memo memoCounter
	var req int64
	var last *tenant.Engine // the latest pass's engine, what a daemon would retain
	pass := func() (uint64, error) {
		req++
		root := tr.start("cold-suite.pass", 0, req)
		eng := tenant.NewEngine(procs, nil)
		last = eng
		sp := tr.start("tenant.Engine.RunPool/cold", root.id(), req)
		res, err := eng.RunPool(ctx, pop, coldPool)
		if err != nil {
			return 0, err
		}
		sp.end(int64(records(res)))
		pd, err := readProfiles(ctx, eng, pop, tr, root.id(), req)
		if err != nil {
			return 0, err
		}
		root.end(int64(instructions(res)))
		ph.attempted += 2
		ph.checkDigest(fmt.Sprintf("cold pass %d: pool", req), resultDigest(res), want["pool"])
		ph.checkDigest(fmt.Sprintf("cold pass %d: profiles", req), pd, want["profiles"])
		memo.lookups += uint64(2 * len(pop))
		memo.misses += runnerLookups(eng)
		return instructions(res), nil
	}
	for i := 0; i < setupReps; i++ {
		w := startWatch()
		if _, err := pass(); err != nil {
			return nil, err
		}
		ph.addSetup(w)
	}
	memo = memoCounter{}
	settle()
	mem := startMem()
	var work uint64
	w := startWatch()
	for w.more(b.seconds, ph.passes) {
		n, err := pass()
		if err != nil {
			return nil, err
		}
		work += n
		ph.passes++
	}
	ph.endWork(w, work)
	ph.endMeasure(mem, last)
	ph.layers = map[string]float64{"runner.profile_memo_hit_ratio": memo.ratio()}
	return ph, nil
}

// runWarmReplay is the warm-replay workload: set-up profiles two suite
// rounds once; then every measured round replays them through RunPool,
// every lookup a memo hit, under each of the six policies at one and two
// shards in a seeded order, and reads the profiles back. The measured
// phase runs as many whole rounds as fit in --seconds, so every run
// weighs the twelve configurations alike.
func runWarmReplay(b *bench, tr *tracer) (*phase, error) {
	ctx := context.Background()
	v := variantOf(b.seed)
	pop := warmPopulation(v)
	pools := warmPools()
	daemonPool := lbadConfig().Pool
	want := expected["warm-replay"][fmt.Sprint(v)]
	ph := &phase{workUnit: "log records replayed"}
	var eng *tenant.Engine
	for i := 0; i < setupReps; i++ {
		w := startWatch()
		eng = tenant.NewEngine(procs, nil)
		res, err := eng.RunPool(ctx, pop, daemonPool)
		if err != nil {
			return nil, err
		}
		ph.addSetup(w)
		ph.attempted++
		ph.checkDigest("set-up replay", resultDigest(res), want[poolKey(daemonPool)])
	}
	rng := rand.New(rand.NewPCG(b.seed, 0x9e3779b97f4a7c15))
	var memo memoCounter
	var recs uint64
	var req int64
	settle()
	mem := startMem()
	before := runnerLookups(eng)
	w := startWatch()
	for round := 0; w.more(b.seconds, round); round++ {
		for _, i := range rng.Perm(len(pools)) {
			req++
			sp := tr.start("tenant.Engine.RunPool/"+poolKey(pools[i]), 0, req)
			res, err := eng.RunPool(ctx, pop, pools[i])
			if err != nil {
				return nil, err
			}
			n := records(res)
			sp.end(int64(n))
			recs += n
			memo.lookups += uint64(len(pop))
			ph.attempted++
			ph.checkDigest("replay "+poolKey(pools[i]), resultDigest(res), want[poolKey(pools[i])])
		}
		req++
		pd, err := readProfiles(ctx, eng, pop, tr, 0, req)
		if err != nil {
			return nil, err
		}
		memo.lookups += uint64(len(pop))
		ph.attempted++
		ph.checkDigest(fmt.Sprintf("round %d: profiles", round), pd, want["profiles"])
		ph.passes++
	}
	ph.endWork(w, recs)
	memo.misses = runnerLookups(eng) - before
	ph.endMeasure(mem, eng)
	ph.layers = map[string]float64{"runner.profile_memo_hit_ratio": memo.ratio()}
	return ph, nil
}

func records(res *tenant.PoolResult) uint64 {
	var n uint64
	for _, t := range res.Tenants {
		n += t.Records
	}
	return n
}

func instructions(res *tenant.PoolResult) uint64 {
	var n uint64
	for _, t := range res.Tenants {
		n += t.Instructions
	}
	return n
}
