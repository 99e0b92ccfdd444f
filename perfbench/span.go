package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Start and End are
// offsets from the tracer's origin; Parent is -1 for a root. Spans of one
// replayed operation share Req.
type span struct {
	Name   string        `json:"name"`
	Req    int           `json:"req"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for one single-goroutine replay. A disabled
// tracer records nothing and its begin/end cost one branch, so the same
// replay code runs with and without spans.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	open   []int // stack of open span IDs
	req    int
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// request starts a new operation: later roots carry this request id.
func (t *tracer) request(id int) { t.req = id }

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Req: t.req, ID: id, Parent: parent, Start: time.Since(t.origin)})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if !t.on {
		return
	}
	t.spans[id].End = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case x.lo <= cur.hi:
			if x.hi > cur.hi {
				cur.hi = x.hi
			}
		default:
			total += cur.hi - cur.lo
			cur = x
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
