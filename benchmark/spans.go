package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call made from the benchmark into a layer of the
// program. Spans of one op share Op; Parent is the ID of the span that
// caused this one, or -1.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// tracer keeps spans, counts and direct observations in memory until
// the run ends. A nil tracer records nothing, which is the untraced path.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string]int64
	obs    map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]int64{}, obs: map[string][]float64{}}
}

// add records a finished span and returns its ID for use as a parent.
func (t *tracer) add(name string, parent, op int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartNs: start.Sub(t.epoch).Nanoseconds(), DurNs: d.Nanoseconds()})
	return id
}

// count adds to a named counter.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// observe records one direct measurement that is not an interval.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.obs[name] = append(t.obs[name], v)
	t.mu.Unlock()
}

// perOpMs sums, within each op, the durations of the spans called name
// (a compiler pass can run several times in one compile) and returns
// one value in milliseconds per op that has such a span. With self set
// it subtracts the time covered by each span's direct children.
func (t *tracer) perOpMs(name string, self bool) []float64 {
	children := map[int]int64{}
	if self {
		for _, s := range t.spans {
			if s.Parent >= 0 {
				children[s.Parent] += s.DurNs
			}
		}
	}
	byOp := map[int]int64{}
	for _, s := range t.spans {
		if s.Name == name {
			byOp[s.Op] += s.DurNs - children[s.ID]
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, ns := range byOp {
		out = append(out, float64(ns)/1e6)
	}
	sort.Float64s(out)
	return out
}

// medianMs is the median over ops of perOpMs, 0 when no op has the span.
func (t *tracer) medianMs(name string) float64 { return percentile(t.perOpMs(name, false), 50) }

// write stores the spans and counts as JSON under dir.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string           `json:"workload"`
		Counts   map[string]int64 `json:"counts"`
		Spans    []span           `json:"spans"`
	}{workload, t.counts, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// percentile is the nearest-rank percentile p of an ascending slice,
// 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	return sorted[max(0, min(idx, len(sorted)-1))]
}
