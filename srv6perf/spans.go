package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around its own calls: a setup step, a RunUntil chunk or a replay
// batch. Start and End are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 at the top
	Run    int32  `json:"run"`    // identifies the simulation instance
}

// tracer keeps spans in memory until the benchmark exits. A nil
// tracer records nothing, so untraced runs pay one pointer compare
// per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
	run   int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// setRun tags the spans that follow with a new instance id.
func (t *tracer) setRun(id int32) {
	if t != nil {
		t.run = id
	}
}

// begin opens a span nested in the innermost open one and returns
// its index for end.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Run: t.run})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes sums, per span name, each span's duration minus the part
// its direct children cover: the time the named step spent outside
// any nested layer call.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// printSelfTimes writes the self-time table to stderr, largest first.
func (t *tracer) printSelfTimes() {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(os.Stderr, "%-32s %12s\n", "span (self time)", "ms")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-32s %12.3f\n", n, float64(self[n])/1e6)
	}
}

// write stores the spans as one JSON document in dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
