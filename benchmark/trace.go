// Outside-in tracing. The benchmark records a span around every call
// it makes into a layer's public functions; nothing inside the engine
// is instrumented. Spans stay in memory until the run ends.

package main

import (
	"sort"
	"time"

	"repro/internal/metrics"
)

// span is one timed call. Parent is the id of the span that caused it
// (0 for a root); spans of one operation share Op (-1 under the replay
// root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans. A nil *tracer records nothing, which is how
// untraced runs execute the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id.
func (t *tracer) begin(parent, op int32, name string) int32 {
	if t == nil {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// nameTotals aggregates spans by name.
type nameTotals struct {
	Count  int   `json:"count"`
	Total  int64 `json:"total_ns"`
	SelfNs int64 `json:"self_ns"`
}

// selfTimes computes, per span name, the total duration and the self
// time: a span's duration minus the part of its interval that its
// child spans cover, with overlapping children counted once.
func selfTimes(spans []span) map[string]*nameTotals {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*nameTotals)
	for _, s := range spans {
		nt := out[s.Name]
		if nt == nil {
			nt = &nameTotals{}
			out[s.Name] = nt
		}
		d := s.End - s.Start
		nt.Count++
		nt.Total += d
		nt.SelfNs += d - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi) the given spans cover, merging
// overlaps and clipping to the interval.
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	end := lo
	for _, k := range kids {
		s, e := k.Start, k.End
		if s < end {
			s = end
		}
		if e > hi {
			e = hi
		}
		if e > s {
			sum += e - s
			end = e
		}
	}
	return sum
}

// durationsOf returns the durations of every span with the given name.
func durationsOf(spans []span, name string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// counters is a reading of the engine's public metric registry.
type counters map[string]int64

func readCounters() counters {
	snap := metrics.Default.Snapshot()
	c := make(counters, len(snap.Samples))
	for _, s := range snap.Samples {
		if s.Kind == "counter" {
			c[s.Name] = s.Value
		}
	}
	return c
}

// delta returns after minus before for every counter in after.
func (before counters) delta(after counters) counters {
	d := make(counters, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// plus returns the sum of two readings.
func (c counters) plus(o counters) counters {
	sum := make(counters, len(o))
	for k, v := range c {
		sum[k] = v
	}
	for k, v := range o {
		sum[k] += v
	}
	return sum
}

// ratio is num/den, 0 when the denominator is 0 (the layer did not run).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
