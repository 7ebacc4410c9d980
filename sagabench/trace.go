package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. Spans of one request share Req; Parent links a
// span to the span that caused it (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer records
// nothing, so untraced runs pay one branch per span.
type tracer struct {
	on    bool
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// openSpan is a span in progress.
type openSpan struct {
	id, parent, req uint64
	name            string
	start           int64
}

// begin starts a span; pass its id as the parent of spans it causes.
func (t *tracer) begin(name string, parent, req uint64) openSpan {
	if !t.on {
		return openSpan{}
	}
	return openSpan{id: t.next.Add(1), parent: parent, req: req, name: name, start: int64(time.Since(t.t0))}
}

// end records a span started by begin.
func (t *tracer) end(o openSpan) {
	if !t.on {
		return
	}
	s := span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name, Start: o.start, End: int64(time.Since(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfRow aggregates the spans of one name.
type selfRow struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
}

// selfTimes computes each span's self time — its duration minus the part of
// its interval that its children cover — and sums it per span name.
func selfTimes(spans []span) []selfRow {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*selfRow)
	for _, s := range spans {
		covered := coveredNS(s, children[s.ID])
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalMS += float64(s.End-s.Start) / 1e6
		r.SelfMS += float64(s.End-s.Start-covered) / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// coveredNS is the length of the union of the children's intervals, clipped
// to the parent's.
func coveredNS(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return total + curB - curA
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
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

// printSelfTable renders the per-span and per-layer self-time table.
func printSelfTable(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	layers := make(map[string]float64)
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8d %12.2f %12.2f\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
		layers[layerOf(r.Name)] += r.SelfMS
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-22s %12s\n", "layer", "self_ms")
	for _, l := range names {
		fmt.Fprintf(w, "%-22s %12.2f\n", l, layers[l])
	}
}
