package main

// The harness's own span recorder. The program under test is traced
// from outside: a span wraps each call into a layer's exported function,
// spans are kept in memory and only written out (Chrome trace-event
// JSON) when the run ends. A recorder belongs to one goroutine; code
// that runs on two (the stream producer) gets one recorder per goroutine
// and the span lists are joined afterwards.

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// span is one timed call. Parent indexes the recorder's span list (-1
// for a root); Batch is the identifier the spans of one operation share.
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's epoch
	Parent     int32
	Batch      int32
}

// recorder collects spans (spans mode) or attributes heap allocations
// to span names (allocs mode). A nil *recorder records nothing, which is
// how the same replay code runs with recording off.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int32
	batch int32

	// allocs mode: Mallocs deltas are charged to the innermost open
	// name, so like self time they exclude children.
	countAllocs bool
	allocs      map[string]uint64
	names       []string
	lastMallocs uint64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func newAllocRecorder() *recorder {
	return &recorder{countAllocs: true, allocs: map[string]uint64{}, lastMallocs: mallocs()}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// setBatch tags the spans begun from now on.
func (r *recorder) setBatch(id int) {
	if r != nil {
		r.batch = int32(id)
	}
}

// begin opens a span as a child of the innermost open one.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	if r.countAllocs {
		r.chargeAllocs()
		r.names = append(r.names, name)
		return
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.stack = append(r.stack, int32(len(r.spans)))
	r.spans = append(r.spans, span{Name: name, Parent: parent, Batch: r.batch, Start: time.Since(r.epoch)})
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	if r.countAllocs {
		r.chargeAllocs()
		r.names = r.names[:len(r.names)-1]
		return
	}
	now := time.Since(r.epoch)
	n := len(r.stack)
	r.spans[r.stack[n-1]].End = now
	r.stack = r.stack[:n-1]
}

// add records a finished span measured elsewhere (an interval derived
// from two timestamps rather than wrapped around a call) under the given
// parent (-1 for a root) and returns its index.
func (r *recorder) add(name string, start, end time.Time, parent int32) int32 {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Batch: r.batch,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return int32(len(r.spans) - 1)
}

func (r *recorder) chargeAllocs() {
	m := mallocs()
	if n := len(r.names); n > 0 {
		r.allocs[r.names[n-1]] += m - r.lastMallocs
	}
	r.lastMallocs = m
}

// join appends another goroutine's spans, re-seating them on r's epoch.
func (r *recorder) join(o *recorder) {
	shift := o.epoch.Sub(r.epoch)
	base := int32(len(r.spans))
	for _, s := range o.spans {
		s.Start += shift
		s.End += shift
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// selfTimes returns, per span name, the summed self time (duration minus
// the part covered by child spans) and the span count.
func selfTimes(spans []span) (self map[string]time.Duration, count map[string]int) {
	self = map[string]time.Duration{}
	count = map[string]int{}
	own := make([]time.Duration, len(spans))
	for i, s := range spans {
		d := s.End - s.Start
		own[i] += d
		if s.Parent >= 0 {
			own[s.Parent] -= d
		}
		count[s.Name]++
	}
	for i, s := range spans {
		self[s.Name] += own[i]
	}
	return self, count
}

// durationsOf returns the durations of the spans with the given name, in
// milliseconds.
func durationsOf(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	return out
}

// traceEvent is one Chrome trace-event ("X" = complete event).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes every workload's spans as one trace-event
// array: a process per workload, a thread per span-tree depth so nested
// spans stack in the viewer.
func writeChromeTrace(w io.Writer, results []*workloadResult) error {
	var events []traceEvent
	for pid, res := range results {
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": res.Name}})
		depth := make([]int, len(res.spans))
		for i, s := range res.spans {
			if s.Parent >= 0 {
				depth[i] = depth[s.Parent] + 1
			}
			events = append(events, traceEvent{
				Name: s.Name, Ph: "X", Pid: pid, Tid: depth[i],
				Ts:   float64(s.Start) / float64(time.Microsecond),
				Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
				Args: map[string]any{"batch": s.Batch, "parent": s.Parent},
			})
		}
	}
	return json.NewEncoder(w).Encode(events)
}
