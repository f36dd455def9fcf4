package main

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"sync/atomic"

	"flor.dev/flor/internal/obs"
)

// tracer collects spans in an obs.Trace: one per call the benchmark made
// into a layer of the program, plus the phase spans the program reported.
// Each span's "id" attr names it, "parent" names the span that caused it,
// and "req" the request it served. A nil *tracer records nothing, so
// untraced runs pay one nil check per call site.
type tracer struct {
	*obs.Trace
	ids atomic.Int64
}

func newTracer() *tracer { return &tracer{Trace: obs.NewTrace()} }

// openSpan is a span begun but not yet ended. The zero value (from a nil
// tracer) ends as a no-op.
type openSpan struct {
	t                   *tracer
	id, parent, req, at int64
	name                string
}

// begin starts a span; its ID is known at once, so children can name it.
func (t *tracer) begin(name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.ids.Add(1), parent: parent, req: req, at: t.Now(), name: name}
}

// end records the span.
func (s openSpan) end() {
	if s.t != nil {
		s.t.addID(s.id, obs.Span{Name: s.name, StartNs: s.at, DurNs: s.t.Now() - s.at}, s.parent, s.req)
	}
}

// add records a finished span with explicit times and returns its ID.
func (t *tracer) add(name string, parent, req, start, end int64) int64 {
	if t == nil {
		return 0
	}
	id := t.ids.Add(1)
	t.addID(id, obs.Span{Name: name, StartNs: start, DurNs: end - start}, parent, req)
	return id
}

// addID records s under id, keeping any attrs it already carries.
func (t *tracer) addID(id int64, s obs.Span, parent, req int64) {
	attrs := maps.Clone(s.Attrs)
	if attrs == nil {
		attrs = map[string]int64{}
	}
	attrs["id"], attrs["req"] = id, req
	if parent != 0 {
		attrs["parent"] = parent
	}
	s.Attrs = attrs
	t.Add(s)
}

// newReq allocates a request ID (0 for a nil tracer).
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// timed runs fn inside a span named name.
func (t *tracer) timed(name string, parent, req int64, fn func()) {
	s := t.begin(name, parent, req)
	fn()
	s.end()
}

// importReplay attaches the phase spans a replay reported through
// replay.Options.Trace (per-worker setup, init, work and restore, with
// their attrs) under the benchmark's replay span. base is the tracer time
// at which the program's trace began. Restore spans nest under the init or
// work span of the same worker that contains them.
func (t *tracer) importReplay(prog *obs.Trace, parent, req, base int64) {
	if t == nil || prog == nil {
		return
	}
	type phase struct {
		worker     int
		start, end int64
		id         int64
	}
	var phases []phase
	all := prog.Spans()
	for _, s := range all {
		switch s.Name {
		case "setup", "init", "work", "slot_wait":
			s.Name, s.StartNs = "replay."+s.Name, base+s.StartNs
			id := t.ids.Add(1)
			t.addID(id, s, parent, req)
			phases = append(phases, phase{s.Worker, s.StartNs, s.StartNs + s.DurNs, id})
		}
	}
	for _, s := range all {
		if s.Name != "restore" {
			continue
		}
		s.Name, s.StartNs = "skipblock.restore", base+s.StartNs
		p := parent
		for _, ph := range phases {
			if ph.worker == s.Worker && ph.start <= s.StartNs && s.StartNs < ph.end {
				p = ph.id
			}
		}
		t.addID(t.ids.Add(1), s, p, req)
	}
}

// layerRow is one line of the traced run's span table.
type layerRow struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
}

// table aggregates spans by name: count, total time, and self time (a
// span's duration minus the part of it its children cover).
func (t *tracer) table() []layerRow {
	if t == nil {
		return nil
	}
	spans := t.Spans()
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if p := s.Attrs["parent"]; p != 0 {
			children[p] = append(children[p], [2]int64{s.StartNs, s.StartNs + s.DurNs})
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
		r.TotalMs += float64(s.DurNs) / 1e6
		r.SelfMs += float64(s.DurNs-covered(s.StartNs, s.StartNs+s.DurNs, children[s.Attrs["id"]])) / 1e6
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [start, end) the union of ivs covers.
func covered(start, end int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([][2]int64(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total int64
	cur := start
	for _, iv := range s {
		a, b := max(iv[0], cur), min(iv[1], end)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeTable prints the span table.
func writeTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "  %-26s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %7d %12.3f %12.3f\n", r.Name, r.Count, r.TotalMs, r.SelfMs)
	}
}
