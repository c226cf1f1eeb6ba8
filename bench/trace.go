package main

// Spans for the traced run. They are recorded around calls into the
// program's public functions from the benchmark's own files, kept in
// memory, and written as JSONL when the run ends. Every span belongs
// to one serial caller, so a span's children never overlap and its
// self time is its duration minus the sum of theirs.

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

type span struct {
	name       string
	id, parent int32 // parent -1: a root span
	start, end int64 // ns since the tracer's epoch
}

// tracer records spans for one serial caller. The zero value is not
// ready; use newTracer. A nil *tracer records nothing, so untraced
// code paths share the traced ones at the cost of a nil check.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: int64(time.Since(t.epoch))})
	return id
}

// finish closes span id.
func (t *tracer) finish(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
}

// emptySpanNS is the duration a span records around no work: the
// tracer's own cost, which every span's measured duration includes.
func emptySpanNS(epoch time.Time) float64 {
	const n = 10000
	t := newTracer(epoch)
	for i := 0; i < n; i++ {
		t.finish(t.begin("empty", -1))
	}
	var ns int64
	for _, s := range t.spans {
		ns += s.end - s.start
	}
	return float64(ns) / n
}

// layerTime is the per-name total of self time and the span count.
type layerTime struct {
	selfNS int64
	count  int
}

// selfTimes sums self time per span name: each span's duration minus
// the durations of its direct children.
func selfTimes(spans []span) map[string]layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]layerTime{}
	for i, s := range spans {
		lt := out[s.name]
		lt.selfNS += s.end - s.start - child[i]
		lt.count++
		out[s.name] = lt
	}
	return out
}

// totalTimes sums whole-span duration per name.
func totalTimes(spans []span) map[string]layerTime {
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.name]
		lt.selfNS += s.end - s.start
		lt.count++
		out[s.name] = lt
	}
	return out
}

// writeSpans writes every tracer's spans as JSONL to path, one object
// per span with the tracer index as the trace id.
func writeSpans(path string, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	for ti, t := range tracers {
		for _, s := range t.spans {
			fmt.Fprintf(w, `{"trace":%d,"name":%q,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				ti, s.name, s.id, s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
