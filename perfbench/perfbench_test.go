package main

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/tenant"
)

func TestScheduleSameSeedSameSchedule(t *testing.T) {
	a, b := makeSchedule(7, 1), makeSchedule(7, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 produced two different schedules")
	}
	if reflect.DeepEqual(a, makeSchedule(8, 1)) {
		t.Fatal("seeds 7 and 8 produced the same schedule")
	}
	counts := map[reqKind]int{}
	for i, s := range a {
		counts[s.Kind]++
		if s.At < 0 || s.At > baseWindow {
			t.Fatalf("request %d due at %v, outside the %v window", i, s.At, baseWindow)
		}
		if i > 0 && s.At < a[i-1].At {
			t.Fatalf("request %d due at %v before request %d at %v", i, s.At, i-1, a[i-1].At)
		}
		if (s.Kind == kAdmitExplicit) != (s.Bench != "") {
			t.Fatalf("request %d: kind %d with benchmark %q", i, s.Kind, s.Bench)
		}
	}
	if !reflect.DeepEqual(counts, baseMix) {
		t.Fatalf("mix %v, want %v", counts, baseMix)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {120, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	tm, err := summarize(xs, tailPercentile(len(xs)))
	if err != nil {
		t.Fatal(err)
	}
	if tm.N != 120 || tm.TailPct != 90 {
		t.Fatalf("summary reports n=%d p%g, want n=120 p90", tm.N, tm.TailPct)
	}
	beyond := 0
	for _, x := range xs {
		if x > tm.Tail {
			beyond++
		}
	}
	if beyond < minBeyond {
		t.Fatalf("%d samples beyond p90 = %g, want at least %d", beyond, tm.Tail, minBeyond)
	}
	if _, err := summarize(xs[:99], 90); err == nil {
		t.Fatal("summarize accepted 99 samples for a p90")
	}
}

func TestLayerTableSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "child", Start: 40, End: 70}, // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120, Units: 3},
	}
	rows := layerTable(spans)
	want := map[string]layerRow{
		"parent": {Name: "parent", Count: 1, TotalNs: 100, SelfNs: 100 - 60 - 10},
		"child":  {Name: "child", Count: 3, TotalNs: 100, SelfNs: 100, Units: 3},
	}
	for _, r := range rows {
		if r != want[r.Name] {
			t.Errorf("row %+v, want %+v", r, want[r.Name])
		}
	}
}

// A perturbed statistic changes the digest, and a digest that differs
// from its expectation fails the run.
func TestPerturbedDigestFailsCheck(t *testing.T) {
	if _, err := loadExpectations(); err != nil {
		t.Fatal(err)
	}
	eng := tenant.NewEngine(1, nil)
	pop := coldPopulation(0)[:2]
	res, err := eng.RunPool(context.Background(), pop, coldPool)
	if err != nil {
		t.Fatal(err)
	}
	good := resultDigest(res)
	res.Tenants[1].Instructions++
	bad := resultDigest(res)
	if good == bad {
		t.Fatal("perturbing a tenant's instruction count left the digest unchanged")
	}
	var ph phase
	ph.checkDigest("same", good, good)
	if ph.failed != 0 {
		t.Fatalf("matching digests failed the check: %v", ph.errs)
	}
	ph.checkDigest("perturbed", bad, good)
	ph.checkDigest("unexpected", good, "")
	if ph.failed != 2 {
		t.Fatalf("%d failures, want 2 (perturbed and missing expectation)", ph.failed)
	}
}

// The committed expectations cover every variant and match a fresh
// cold pass of variant 0.
func TestExpectationsCurrent(t *testing.T) {
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < variants; v++ {
		if len(exp["cold-suite"][fmt.Sprint(v)]) != 2 || len(exp["warm-replay"][fmt.Sprint(v)]) != len(warmPools())+2 {
			t.Fatalf("variant %d: expectations incomplete", v)
		}
	}
	ctx := context.Background()
	eng := tenant.NewEngine(procs, nil)
	pop := coldPopulation(0)
	res, err := eng.RunPool(ctx, pop, coldPool)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultDigest(res), exp["cold-suite"]["0"]["pool"]; got != want {
		t.Fatalf("cold pass digest %s, committed %s", got, want)
	}
}

func TestAuditCheck(t *testing.T) {
	entries := []serve.AuditEntry{
		{Seq: 1, Op: "admit", TenantID: 1},
		{Seq: 2, Op: "admit", TenantID: 2},
		{Seq: 3, Op: "reject"},
		{Seq: 4, Op: "evict", TenantID: 1},
		{Seq: 5, Op: "admit", TenantID: 3},
	}
	acks := []ack{{201, 1}, {201, 2}, {202, 1}, {201, 3}}
	if errs := checkAudit(entries, acks, []int{3, 2}); len(errs) != 0 {
		t.Fatalf("consistent log failed the check: %v", errs)
	}
	for _, tc := range []struct {
		name    string
		entries []serve.AuditEntry
		acks    []ack
		served  []int
		want    string
	}{
		{"missing admit", append(entries[:0:0], entries[1:]...), acks, []int{2, 3}, "201 for tenant 1"},
		{"missing evict", append(entries[:3:3], entries[4]), acks, []int{1, 2, 3}, "202 for tenant 1"},
		{"served set differs", entries, acks, []int{2}, "folds to [2 3]"},
	} {
		errs := checkAudit(tc.entries, tc.acks, tc.served)
		if len(errs) == 0 || !strings.Contains(strings.Join(errs, "; "), tc.want) {
			t.Errorf("%s: errors %v, want one containing %q", tc.name, errs, tc.want)
		}
	}
}
