package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded around a call into a layer.
// Spans of one operation share Op; Parent is the enclosing span's ID
// (-1 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write saves them when the run ends. A
// nil tracer records nothing, so untraced ops call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return s.dur()
}

// do wraps fn in a span.
func (t *tracer) do(op, parent int, name string, fn func()) {
	id := t.begin(op, parent, name)
	fn()
	t.end(id)
}

// selfTimes returns each span's duration minus the part of its interval
// its child spans cover, keyed by span ID.
func selfTimes(spans []span) []time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerTimes sums self time by span name.
func layerTimes(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// coverage is the share of the named roots' wall time that their
// children cover: a stage left out of the composition shows as a gap.
func coverage(spans []span, root string) float64 {
	self := selfTimes(spans)
	var wall, uncovered time.Duration
	for i, s := range spans {
		if s.Name == root && s.Parent < 0 {
			wall += s.dur()
			uncovered += self[i]
		}
	}
	if wall == 0 {
		return 0
	}
	return 100 * float64(wall-uncovered) / float64(wall)
}

// msPer returns the self time of spans named name, in ms, per op.
func msPer(times map[string]time.Duration, name string, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return ms(times[name]) / float64(ops)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
