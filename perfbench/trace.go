package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Start and End are nanoseconds since the
// tracer's epoch; Parent is 0 for a root span; Req groups the spans of
// one request or pass; Units counts the work the call did (records,
// instructions, steps), so ratios are taken where the work happens.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Units  int64  `json:"units,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once the run ends.
// A nil *tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span; end closes it. Both are no-ops on a nil
// tracer.
type active struct {
	tr *tracer
	sp span
}

// start opens a span named name under parent (0 for a root) in request
// req.
func (t *tracer) start(name string, parent, req int64) *active {
	if t == nil {
		return nil
	}
	return &active{tr: t, sp: span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name,
		Start: time.Since(t.epoch).Nanoseconds()}}
}

// id is the span's id, for use as a child's parent (0 on a nil span).
func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.sp.ID
}

// end closes the span, crediting it with units of work.
func (a *active) end(units int64) {
	if a == nil {
		return
	}
	a.sp.End = time.Since(a.tr.epoch).Nanoseconds()
	a.sp.Units = units
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, a.sp)
	a.tr.mu.Unlock()
}

// snapshot returns the spans recorded so far, in end order.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines under path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow aggregates the spans of one name: how many, their total
// duration, their self time (duration minus the union of the intervals
// their children cover) and the work units they report.
type layerRow struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
	Units   int64
}

// layerTable computes the per-layer table from spans.
func layerTable(spans []span) []layerRow {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalNs += s.dur()
		r.SelfNs += s.dur() - covered(s, children[s.ID])
		r.Units += s.Units
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's. Children may overlap (a parent that fans out
// across workers), so their durations are not simply summed.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// printLayerTable writes the per-layer table in fixed columns.
func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-44s %7s %12s %12s %12s %12s\n", "layer span", "count", "total_ms", "self_ms", "units", "self_ns/unit")
	for _, r := range rows {
		perUnit := "-"
		if r.Units > 0 {
			perUnit = fmt.Sprintf("%.1f", float64(r.SelfNs)/float64(r.Units))
		}
		fmt.Fprintf(w, "%-44s %7d %12.3f %12.3f %12d %12s\n", r.Name, r.Count,
			float64(r.TotalNs)/1e6, float64(r.SelfNs)/1e6, r.Units, perUnit)
	}
}
