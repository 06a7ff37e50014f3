package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/serve"
	"repro/internal/tenant"
)

// expectJSON holds the output digests every cold-suite and warm-replay
// run is checked against: workload -> population variant -> key ->
// digest. Keys are "pool" (the cold pass), "<policy>/s<shards>" (a warm
// replay) and "profiles" (the profiles read back). Regenerate it with
// --write-expect only when a change is meant to alter simulated output,
// and say why in the change.
//
//go:embed expect.json
var expectJSON []byte

var expected map[string]map[string]map[string]string

func loadExpectations() (map[string]map[string]map[string]string, error) {
	if expected != nil {
		return expected, nil
	}
	if err := json.Unmarshal(expectJSON, &expected); err != nil {
		return nil, fmt.Errorf("expect.json: %w", err)
	}
	return expected, nil
}

func digest(v any) string {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("digest: %v", err)) // plain exported data always encodes
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:12])
}

// checkDigest fails the phase when a digest differs from its committed
// expectation (a missing expectation fails too).
func (p *phase) checkDigest(what, got, want string) {
	if want == "" || got != want {
		p.fail("%s: digest %s, want %q", what, got, want)
	}
}

// resultDigest covers every simulated statistic of a pool replay: the
// lba-runner/v1 cell carries per-tenant instructions, records, log bits,
// stalls, drains, lag, migrations, slowdown, contention and violations,
// and the pool's makespan and utilisation; the per-core lifeguard busy
// cycles are added because the cell leaves them out.
func resultDigest(res *tenant.PoolResult) string {
	return digest(struct {
		Cell     any
		CoreBusy []uint64
	}{res.Cell(), res.CoreBusyCycles})
}

// profileDigest covers what the profiling layers produce per tenant:
// instruction, record and log-bit counts, lifeguard cycles, violations,
// the dedicated-core wall and the encoded timeline's size.
func profileDigest(profs []*tenant.Profile) string {
	type row struct {
		Name                              string
		Instr, Records, LogBits, LgCycles uint64
		Violations                        int
		Dedicated                         uint64
		Steps, TimelineBytes              int
	}
	rows := make([]row, len(profs))
	for i, p := range profs {
		rows[i] = row{p.Tenant.Name, p.Result.Instructions, p.Result.Records, p.Result.LogBits,
			p.Result.LgCycles, len(p.Result.Violations), p.DedicatedWall, p.Steps(), p.TimelineBytes()}
	}
	return digest(rows)
}

// writeExpectations recomputes every committed digest with a serial
// engine (the determinism contract makes worker count irrelevant) and
// writes them to path.
func writeExpectations(path string) error {
	ctx := context.Background()
	out := map[string]map[string]map[string]string{"cold-suite": {}, "warm-replay": {}}
	for v := 0; v < variants; v++ {
		key := fmt.Sprint(v)
		eng := tenant.NewEngine(1, nil)
		pop := coldPopulation(v)
		res, err := eng.RunPool(ctx, pop, coldPool)
		if err != nil {
			return err
		}
		pd, err := readProfiles(ctx, eng, pop, nil, 0, 0)
		if err != nil {
			return err
		}
		out["cold-suite"][key] = map[string]string{"pool": resultDigest(res), "profiles": pd}

		pop = warmPopulation(v)
		w := map[string]string{}
		for _, p := range warmPools() {
			res, err := eng.RunPool(ctx, pop, p)
			if err != nil {
				return err
			}
			w[poolKey(p)] = resultDigest(res)
		}
		daemonPool := lbadConfig().Pool
		res, err = eng.RunPool(ctx, pop, daemonPool)
		if err != nil {
			return err
		}
		w[poolKey(daemonPool)] = resultDigest(res)
		if w["profiles"], err = readProfiles(ctx, eng, pop, nil, 0, 0); err != nil {
			return err
		}
		out["warm-replay"][key] = w
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// ack is one acknowledged lbad decision the client saw.
type ack struct {
	status int // 201 admit, 202 evict
	id     int
}

// checkAudit verifies the daemon's durable log against what the client
// was told: every 201 must be an admit entry and every 202 an evict entry
// for the same tenant, and the live set folded from the log must equal
// the tenant list the daemon served once idle. It returns one message per
// violation.
func checkAudit(entries []serve.AuditEntry, acks []ack, served []int) []string {
	admits, evicts := map[int]bool{}, map[int]bool{}
	live := map[int]bool{}
	for _, e := range entries {
		switch e.Op {
		case "admit":
			admits[e.TenantID] = true
			live[e.TenantID] = true
		case "evict":
			evicts[e.TenantID] = true
			delete(live, e.TenantID)
		}
	}
	var errs []string
	for _, a := range acks {
		switch {
		case a.status == 201 && !admits[a.id]:
			errs = append(errs, fmt.Sprintf("201 for tenant %d has no admit entry in the audit log", a.id))
		case a.status == 202 && !evicts[a.id]:
			errs = append(errs, fmt.Sprintf("202 for tenant %d has no evict entry in the audit log", a.id))
		}
	}
	folded := make([]int, 0, len(live))
	for id := range live {
		folded = append(folded, id)
	}
	sort.Ints(folded)
	got := append([]int(nil), served...)
	sort.Ints(got)
	if fmt.Sprint(folded) != fmt.Sprint(got) {
		errs = append(errs, fmt.Sprintf("GET /v1/tenants served %v once idle, the audit log folds to %v", got, folded))
	}
	return errs
}
