package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/tenant"
	"repro/internal/workloads"
)

// lbadConfig is the daemon under test: a 2-core least-lag pool whose
// contention SLO admits about three suite tenants, so admissions see
// both 201s and 409s.
func lbadConfig() serve.Config {
	return serve.Config{
		Pool:       tenant.PoolConfig{Cores: procs, Policy: tenant.PolicyLeastLag},
		SLO:        5,
		Scale:      simScale,
		Seed:       serve.DefaultSeed,
		Threads:    serve.DefaultThreads,
		MaxTenants: 16,
		Workers:    procs,
	}
}

// daemonWorkload is the workload configuration the daemon gives suite
// draws, for replicating its planner outside it.
func daemonWorkload(cfg serve.Config) workloads.Config {
	return workloads.Config{Scale: cfg.Scale, Seed: cfg.Seed, Threads: cfg.Threads}
}

type reqKind int

const (
	kAdmit reqKind = iota
	kAdmitExplicit
	kEvict
	kPool
	kTenants
	kMetrics
)

func (k reqKind) isRead() bool  { return k >= kPool }
func (k reqKind) isAdmit() bool { return k == kAdmit || k == kAdmitExplicit }

// baseMix is the request count of each kind in a 10-second window: an
// offered 12.4 requests per second, 20 of them admissions and 100 reads.
// At the daemon's scale an admission at capacity holds the server mutex
// for a planner run of about 200 ms, so two a second keep the mutex busy
// about 40% of the time and the admission queue short. Each
// eviction frees one slot, so about one admission in five is a 201 and
// the rest are 409s at capacity.
var baseMix = map[reqKind]int{
	kAdmit: 18, kAdmitExplicit: 2, kEvict: 4,
	kPool: 34, kTenants: 33, kMetrics: 33,
}

// minLbadWindows is how many base windows an lbad-mixed run holds at
// least: five give 100 admissions, ten of them beyond the p90, and 500
// reads, 25 beyond the p95.
const minLbadWindows = 5

// mixBlocks splits the window into this many blocks of equal request
// mix, so every seed spreads its admissions and evictions evenly over
// the run and only their order within a block varies.
const mixBlocks = 10

const baseWindow = 10 * time.Second

// scheduled is one request of the open-loop schedule: when it is due,
// what it is, and the seeded draws that resolve it at send time.
type scheduled struct {
	At    time.Duration
	Kind  reqKind
	Bench string  // explicit admissions: the benchmark to admit
	Pick  float64 // evictions: which live tenant, as a fraction of the live set
}

// makeSchedule computes the whole request schedule from the seed before
// any request is sent. The mix is baseMix scaled by scale, in seeded
// order; arrival times are a Poisson process conditioned on its count
// over the window (exponential gaps normalised to the window), so every
// seed offers the same rate.
func makeSchedule(seed uint64, scale float64) []scheduled {
	rng := rand.New(rand.NewPCG(seed, 0x5eed5c4ed))
	var kinds []reqKind
	for blk := 0; blk < mixBlocks; blk++ {
		var block []reqKind
		for k := kAdmit; k <= kMetrics; k++ {
			n := float64(baseMix[k]) * scale
			from := int(math.Round(n * float64(blk) / mixBlocks))
			to := int(math.Round(n * float64(blk+1) / mixBlocks))
			for i := from; i < to; i++ {
				block = append(block, k)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		kinds = append(kinds, block...)
	}
	window := time.Duration(float64(baseWindow) * scale)
	gaps := make([]float64, len(kinds)+1)
	var total float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	names := workloads.Names()
	out := make([]scheduled, len(kinds))
	var cum float64
	for i, k := range kinds {
		cum += gaps[i]
		s := scheduled{At: time.Duration(cum / total * float64(window)), Kind: k, Pick: rng.Float64()}
		if k == kAdmitExplicit {
			s.Bench = names[rng.IntN(len(names))]
		}
		out[i] = s
	}
	return out
}

// outcome is one request as the client saw it.
type outcome struct {
	kind      reqKind
	status    int // 0 on a transport error
	latencyMs float64
	lateMs    float64
	fresh     *bool // GET /v1/pool only
}

// daemon is one in-process lbad behind a loopback HTTP server, with two
// clients of one connection each: an admin client that sends the writes
// and a status client that sends the reads.
type daemon struct {
	srv           *serve.Server
	ts            *httptest.Server
	dir           string
	admin, status *client
	closed        bool
}

func startDaemon(b *bench, tr *tracer) (*daemon, error) {
	dir, err := b.scratchDir("lbad")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(lbadConfig(), dir)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = traceHandler(tr, h)
	}
	ts := httptest.NewServer(h)
	return &daemon{srv: srv, ts: ts, dir: dir, admin: newClient(ts.URL, tr), status: newClient(ts.URL, tr)}, nil
}

// traceHandler records a server-side span per request, parented to the
// client's span through request headers.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get("X-Span"), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get("X-Req"), 10, 64)
		sp := tr.start("serve.Handler "+r.Method+" "+routeOf(r.URL.Path), parent, req)
		h.ServeHTTP(w, r)
		sp.end(1)
	})
}

func routeOf(path string) string {
	if strings.HasPrefix(path, "/v1/tenants/") {
		return "/v1/tenants/{id}"
	}
	return path
}

// stop shuts the daemon down and returns its audit log, reopened from
// disk. The store directory is removed afterwards.
func (d *daemon) stop() ([]serve.AuditEntry, error) {
	if d.closed {
		return nil, nil
	}
	d.closed = true
	defer os.RemoveAll(d.dir)
	d.ts.Close()
	d.admin.hc.CloseIdleConnections()
	d.status.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("lbad shutdown: %w", err)
	}
	st, err := serve.Open(d.dir)
	if err != nil {
		return nil, fmt.Errorf("reopening the audit log: %w", err)
	}
	defer st.Close()
	return st.Entries(), nil
}

// client is an HTTP client held to one connection.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{base: base, tr: tr, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
			DisableCompression: true},
	}}
}

// send makes one request in request group req and, on a 2xx, decodes the
// JSON body into v when v is non-nil. It returns the status (0 on a
// transport error) and the raw body.
func (c *client) send(req int64, method, path, body string, v any) (int, []byte, error) {
	sp := c.tr.start("http "+method+" "+routeOf(path), 0, req)
	defer sp.end(1)
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	r, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		r.Header.Set("Content-Type", "application/json")
	}
	if c.tr != nil {
		r.Header.Set("X-Span", strconv.FormatInt(sp.id(), 10))
		r.Header.Set("X-Req", strconv.FormatInt(req, 10))
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if v != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(blob, v); err != nil {
			return resp.StatusCode, blob, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, blob, nil
}

// counters reads /v1/metrics into a map.
func (c *client) counters() (map[string]float64, error) {
	code, blob, err := c.send(0, http.MethodGet, "/v1/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", code)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(blob), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				m[f[0]] = v
			}
		}
	}
	return m, nil
}

// warmUp admits suite draws until the SLO refuses one, which profiles
// every tenant the planner's candidate populations hold and leaves the
// pool at capacity; it returns the admitted ids.
func (d *daemon) warmUp() ([]int, error) {
	var ids []int
	for i := 0; i < lbadConfig().MaxTenants; i++ {
		var ar serve.AdmitResponse
		code, _, err := d.admin.send(0, http.MethodPost, "/v1/tenants", "{}", &ar)
		if err != nil {
			return nil, err
		}
		if code == http.StatusConflict {
			break
		}
		if code != http.StatusCreated {
			return nil, fmt.Errorf("warm-up admission: status %d", code)
		}
		ids = append(ids, ar.Tenant.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return ids, d.srv.WaitIdle(ctx)
}

// lbadRun is the outcome of one open-loop session against a daemon.
type lbadRun struct {
	outs      []outcome
	acks      []ack
	elapsed   time.Duration // first due time to last completion
	entries   []serve.AuditEntry
	seqStart  uint64 // audit entries after this sequence number belong to the session
	counters  map[string]float64
	readSvcMs []float64 // reads-only phase latencies (traced runs)
	retarget  int       // evictions sent as GET /v1/tenants because no tenant was live
	checkErrs []string
}

// drive sends the schedule open-loop: the admin client sends the writes
// and the status client the reads, each on its own connection, each
// request at its due time or, when its connection is still busy, as soon
// as the connection frees. Every latency is measured from the due time,
// so a stall delays the clock of every later request of its client.
func (d *daemon) drive(tr *tracer, sched []scheduled, live []int, ph *phase) (*lbadRun, error) {
	pre, err := d.status.counters()
	if err != nil {
		return nil, err
	}
	mem := startMem()
	run := &lbadRun{outs: make([]outcome, len(sched)), seqStart: uint64(pre["lbad_audit_records"])}
	for _, id := range live {
		run.acks = append(run.acks, ack{http.StatusCreated, id}) // the warm-up's admissions
	}
	var writes, reads []int
	for i, s := range sched {
		if s.Kind.isRead() {
			reads = append(reads, i)
		} else {
			writes = append(writes, i)
		}
	}
	start := time.Now()
	var lastDone [2]time.Time
	var wg sync.WaitGroup
	for ci, idx := range [][]int{writes, reads} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range idx {
				due := start.Add(sched[i].At)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				o := outcome{kind: sched[i].Kind, lateMs: float64(time.Since(due).Nanoseconds()) / 1e6}
				if ci == 0 {
					live = d.write(int64(i+1), sched[i], live, &o, run)
				} else {
					d.read(int64(i+1), &o)
				}
				done := time.Now()
				o.latencyMs = float64(done.Sub(due).Nanoseconds()) / 1e6
				run.outs[i] = o
				lastDone[ci] = done
			}
		}()
	}
	wg.Wait()
	run.elapsed = max(lastDone[0].Sub(start), lastDone[1].Sub(start))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d.srv.WaitIdle(ctx); err != nil {
		run.checkErrs = append(run.checkErrs, fmt.Sprintf("daemon never went idle: %v", err))
	}
	ph.endMeasure(mem, d.srv)
	post, err := d.status.counters()
	if err != nil {
		return nil, err
	}
	run.counters = map[string]float64{}
	for k, v := range post {
		run.counters[k] = v - pre[k]
	}
	if tr != nil {
		// Reads-only phase: a closed loop with nothing writing, so this
		// is the read path's own service time.
		paths := []string{"/v1/pool", "/v1/tenants", "/v1/metrics"}
		for i := 0; i < 150; i++ {
			t0 := time.Now()
			code, _, err := d.status.send(int64(len(sched)+i+1), http.MethodGet, paths[i%len(paths)], "", nil)
			if err != nil || code != http.StatusOK {
				run.checkErrs = append(run.checkErrs, fmt.Sprintf("reads-only GET %s: status %d, %v", paths[i%len(paths)], code, err))
			}
			run.readSvcMs = append(run.readSvcMs, since(t0))
		}
	}
	var list struct {
		Tenants []serve.TenantStatus `json:"tenants"`
	}
	if code, _, err := d.status.send(0, http.MethodGet, "/v1/tenants", "", &list); err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("final GET /v1/tenants: status %d, %v", code, err)
	}
	served := make([]int, len(list.Tenants))
	for i, t := range list.Tenants {
		served[i] = t.ID
	}
	if run.entries, err = d.stop(); err != nil {
		return nil, err
	}
	run.checkErrs = append(run.checkErrs, checkAudit(run.entries, run.acks, served)...)
	return run, nil
}

// write sends one admission or eviction on the admin connection and
// returns the client's updated view of the live tenants. An eviction
// picks its tenant from that view with the schedule's seeded draw; with
// no tenant live it is sent as a GET /v1/tenants instead.
func (d *daemon) write(req int64, s scheduled, live []int, o *outcome, run *lbadRun) []int {
	switch s.Kind {
	case kAdmit, kAdmitExplicit:
		body := "{}"
		if s.Kind == kAdmitExplicit {
			body = fmt.Sprintf(`{"benchmark":%q}`, s.Bench)
		}
		var ar serve.AdmitResponse
		code, _, err := d.admin.send(req, http.MethodPost, "/v1/tenants", body, &ar)
		o.status = code
		if err == nil && code == http.StatusCreated {
			live = append(live, ar.Tenant.ID)
			run.acks = append(run.acks, ack{code, ar.Tenant.ID})
		}
	case kEvict:
		if len(live) == 0 {
			run.retarget++
			o.kind = kTenants
			o.status, _, _ = d.admin.send(req, http.MethodGet, "/v1/tenants", "", nil)
			return live
		}
		sort.Ints(live)
		k := int(s.Pick * float64(len(live)))
		id := live[k]
		live = append(live[:k], live[k+1:]...)
		code, _, err := d.admin.send(req, http.MethodDelete, fmt.Sprintf("/v1/tenants/%d", id), "", nil)
		o.status = code
		if err == nil && code == http.StatusAccepted {
			run.acks = append(run.acks, ack{code, id})
		}
	}
	return live
}

// read sends one GET on the status connection.
func (d *daemon) read(req int64, o *outcome) {
	switch o.kind {
	case kPool:
		var st serve.PoolStatus
		code, _, err := d.status.send(req, http.MethodGet, "/v1/pool", "", &st)
		o.status = code
		if err == nil && code == http.StatusOK {
			o.fresh = &st.Fresh
		}
	case kTenants:
		o.status, _, _ = d.status.send(req, http.MethodGet, "/v1/tenants", "", nil)
	case kMetrics:
		o.status, _, _ = d.status.send(req, http.MethodGet, "/v1/metrics", "", nil)
	}
}

// expectedStatus reports whether the daemon's answer is a correct one:
// 201 or 409 for an admission (a refusal is an answer, not a failure),
// 202 for an eviction of a live tenant, 200 for a read.
func expectedStatus(k reqKind, code int) bool {
	switch {
	case k.isAdmit():
		return code == http.StatusCreated || code == http.StatusConflict
	case k == kEvict:
		return code == http.StatusAccepted
	default:
		return code == http.StatusOK
	}
}

// lbadSession sets the daemon up setupReps times (keeping the last) and
// drives one schedule of the given scale against it.
func lbadSession(b *bench, tr *tracer, scale float64, ph *phase) (*lbadRun, error) {
	var d *daemon
	var live []int
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
		w := startWatch()
		var err error
		if d, err = startDaemon(b, tr); err != nil {
			return nil, err
		}
		if live, err = d.warmUp(); err != nil {
			d.stop()
			return nil, err
		}
		ph.addSetup(w)
	}
	settle()
	run, err := d.drive(tr, makeSchedule(b.seed, scale), live, ph)
	if err != nil {
		d.stop()
		return nil, err
	}
	return run, nil
}

// runLbadMixed is the lbad-mixed workload: seeded Poisson admissions,
// evictions and reads against an in-process daemon over loopback HTTP.
func runLbadMixed(b *bench, tr *tracer) (*phase, error) {
	scale := max(float64(b.seconds)*float64(time.Second)/float64(baseWindow), minLbadWindows)
	ph := &phase{}
	run, err := lbadSession(b, tr, scale, ph)
	if err != nil {
		return nil, err
	}
	fillLbadPhase(ph, run)
	return ph, nil
}

// fillLbadPhase turns a session into latencies, counts, failures and the
// serve-layer figures.
func fillLbadPhase(ph *phase, run *lbadRun) {
	var late, evictMs []float64
	var refused, pools, stale int
	for i, o := range run.outs {
		ph.attempted++
		late = append(late, o.lateMs)
		if !expectedStatus(o.kind, o.status) {
			ph.fail("request %d (kind %d): status %d", i+1, o.kind, o.status)
			continue
		}
		switch {
		case o.kind.isAdmit():
			ph.admit = append(ph.admit, o.latencyMs)
			if o.status == http.StatusConflict {
				refused++
			}
		case o.kind == kEvict:
			evictMs = append(evictMs, o.latencyMs)
		default:
			ph.read = append(ph.read, o.latencyMs)
		}
		if o.fresh != nil {
			pools++
			if !*o.fresh {
				stale++
			}
		}
	}
	ph.attempted++ // the audit-log check
	for _, e := range run.checkErrs {
		ph.fail("%s", e)
	}
	ph.notes = append(ph.notes, fmt.Sprintf("%d requests completed in %.3f s (%.2f/s)",
		len(run.outs), run.elapsed.Seconds(), float64(len(run.outs))/run.elapsed.Seconds()))
	byStatus := map[int][]float64{}
	for _, o := range run.outs {
		if o.kind.isAdmit() {
			byStatus[o.status] = append(byStatus[o.status], o.latencyMs)
		}
	}
	for _, code := range []int{http.StatusCreated, http.StatusConflict} {
		xs := byStatus[code]
		ph.notes = append(ph.notes, fmt.Sprintf("admissions answered %d: %s", code, describe(xs)))
	}
	pops := map[int]int{}
	for _, e := range run.entries {
		if e.Seq > run.seqStart && e.Op != "evict" {
			pops[e.Population]++
		}
	}
	ph.notes = append(ph.notes, fmt.Sprintf("population at each admission decision: %v; generator late p95 %.3f ms (n=%d)", pops, percentile(late, 95), len(late)))
	ph.notes = append(ph.notes, "evictions (DELETE from its due time): "+describe(evictMs))
	c := run.counters
	useful := c["lbad_replays_total"] / math.Max(c["lbad_replays_total"]+c["lbad_replays_cancelled_total"], 1)
	ph.layers = map[string]float64{
		"serve.evict_p50_ms":         median(evictMs),
		"serve.replay_useful_ratio":  useful,
		"serve.stale_read_share":     share(stale, pools),
		"serve.admitted":             c["lbad_admitted_total"],
		"serve.rejected":             c["lbad_rejected_total"],
		"serve.evicted":              c["lbad_evicted_total"],
		"generator.late_p95_ms":      percentile(late, 95),
		"generator.refused":          float64(refused),
		"generator.evict_retargeted": float64(run.retarget),
	}
	if len(run.readSvcMs) > 0 {
		ph.layers["serve.read_service_ms"] = median(run.readSvcMs)
	}
	ph.lbad = run
}

// describe summarises a latency sample in ms for the report: its count,
// its median and the highest tail percentile it has ten samples beyond.
func describe(xs []float64) string {
	out := fmt.Sprintf("n=%d", len(xs))
	if len(xs) == 0 {
		return out
	}
	out += fmt.Sprintf(", p50 %.3f ms", median(xs))
	if p := tailPercentile(len(xs)); p > 50 {
		out += fmt.Sprintf(", p%g %.3f ms", p, percentile(xs, p))
	}
	return out
}
