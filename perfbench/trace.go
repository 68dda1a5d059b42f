package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the traced run: a call into a simulator
// module's public function, or a grouping interval (a repetition, a pass)
// that encloses such calls. Parent is the index of the enclosing span, -1
// for a root; Run numbers the repetition the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// tracer keeps the spans of one traced run in memory. A nil *tracer is the
// untraced mode: span runs the function and records nothing, so the
// end-to-end loop pays one nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	run   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span times fn as a span named name, nested under the innermost open span.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Run: t.run,
		Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, i)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.epoch))
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its direct children cover, over the spans of one run.
func (t *tracer) selfTimes(run int) map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.Run == run {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.Run == run {
			out[s.Name] += time.Duration(s.End - s.Start - child[i])
		}
	}
	return out
}

// write stores every span as JSON under dir, in start order (the order
// they were opened, so Parent indexes stay valid).
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
