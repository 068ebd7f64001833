package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded from
// outside the layer. Times are nanoseconds since the tracer started;
// Parent is the index of the span that caused this one (-1 for a
// root) and Unit numbers the repetition all spans of one unit share.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the "tracing off" state: begin and end are no-ops on it, so the
// end-to-end pass runs the same code with no recording.
type tracer struct {
	mu    sync.Mutex // the serve-sweeps tenants trace concurrently
	t0    time.Time
	unit  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// noSpan is the id begin returns with tracing off, and the parent of
// a root span.
const noSpan = -1

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Unit: t.unit})
	return len(t.spans) - 1
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// nextUnit starts a new repetition: later spans carry the new number.
func (t *tracer) nextUnit() {
	if t != nil {
		t.mu.Lock()
		t.unit++
		t.mu.Unlock()
	}
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children of concurrent clients
// may overlap each other, so coverage is the union of their intervals
// clipped to the parent, not the sum of their durations.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != noSpan {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time over all spans sharing a name.
func selfByName(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// write stores the spans with their self times as one JSON document.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type row struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := selfTimes(t.spans)
	rows := make([]row, len(t.spans))
	for i, s := range t.spans {
		rows[i] = row{span: s, Self: self[i]}
	}
	b, err := json.Marshal(map[string]any{
		"workload":     workload,
		"spans":        rows,
		"self_by_name": selfByName(t.spans),
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(b, '\n'), 0o644)
}
