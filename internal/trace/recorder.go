package trace

import (
	"fmt"
	"sort"
	"sync"
)

// Event is one recorded trace event. Phase is 'X' for a complete span
// (Start/Dur meaningful) or 'i' for an instant (Start meaningful, Dur
// zero), matching the Chrome trace-event phases the exporter emits.
type Event struct {
	Lane  string
	Name  string
	Phase byte
	Start float64
	Dur   float64
	Attrs []Attr
}

// Recorder receives the runtime's observability events; every hook in
// the runtime takes a *Recorder, and nil means tracing is off. All times
// are simulated seconds on the given lane's timeline, and it is safe for
// concurrent use: device lanes are driven by per-device host goroutines.
// It keeps every event in memory and exports them deterministically: events are stable-sorted by lane name,
// preserving each lane's append order. Because every lane has exactly one
// writer goroutine at a time (a device's host goroutine, or the pipeline
// coordinator), per-lane order is the device's ordinal schedule — the
// same schedule fault injection counts on — so a serial and a parallel
// run of one workload export byte-identical traces.
//
// Instants carry no simulated duration; the recorder pins each one to its
// lane's frontier (the largest span end recorded on the lane so far), so
// a fault instant lands exactly where the failed operation would have
// run.
type Recorder struct {
	mu       sync.Mutex
	events   []Event            // guarded by mu
	open     map[SpanID]int     // open Begin spans -> index into events; guarded by mu
	nextID   SpanID             // guarded by mu
	frontier map[string]float64 // guarded by mu
	itemOps  *Histogram
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		open:     map[SpanID]int{},
		frontier: map[string]float64{},
		itemOps:  NewHistogram(OpsBuckets()),
	}
}

// Span records a completed span covering [start, start+dur).
func (r *Recorder) Span(lane, name string, start, dur float64, attrs ...Attr) {
	r.mu.Lock()
	r.events = append(r.events, Event{
		Lane: lane, Name: name, Phase: 'X', Start: start, Dur: dur,
		Attrs: append([]Attr(nil), attrs...),
	})
	if end := start + dur; end > r.frontier[lane] {
		r.frontier[lane] = end
	}
	r.mu.Unlock()
}

// Begin opens a span whose extent is unknown up front (the pipeline's
// per-mapping-run span around its recovery rounds); a later End call
// fixes its duration, and Begin reserves the span's place in lane order
// now.
func (r *Recorder) Begin(lane, name string, start float64, attrs ...Attr) SpanID {
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.open[id] = len(r.events)
	r.events = append(r.events, Event{
		Lane: lane, Name: name, Phase: 'X', Start: start, Dur: -1,
		Attrs: append([]Attr(nil), attrs...),
	})
	if start > r.frontier[lane] {
		r.frontier[lane] = start
	}
	r.mu.Unlock()
	return id
}

// End closes a span opened by Begin. Unknown ids are ignored.
func (r *Recorder) End(id SpanID, end float64, attrs ...Attr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.open[id]
	if !ok {
		return
	}
	delete(r.open, id)
	ev := &r.events[i]
	ev.Dur = end - ev.Start
	if ev.Dur < 0 {
		ev.Dur = 0
	}
	ev.Attrs = append(ev.Attrs, attrs...)
	if end > r.frontier[ev.Lane] {
		r.frontier[ev.Lane] = end
	}
}

// Instant records a point event for a decision that has no simulated
// duration of its own (an injected fault, a batch halving, a failover),
// pinned to the lane's frontier.
func (r *Recorder) Instant(lane, name string, attrs ...Attr) {
	r.mu.Lock()
	r.events = append(r.events, Event{
		Lane: lane, Name: name, Phase: 'i', Start: r.frontier[lane],
		Attrs: append([]Attr(nil), attrs...),
	})
	r.mu.Unlock()
}

// ItemOpsHistogram returns the recorder's per-work-item operation-count
// histogram. The core pipeline observes each item's total op count into
// it when this recorder is installed.
func (r *Recorder) ItemOpsHistogram() *Histogram { return r.itemOps }

// Events returns the recorded events stable-sorted by lane name (each
// lane's internal order preserved). The returned slice is a copy.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	evs := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Lane < evs[j].Lane })
	return evs
}

// Lanes returns the sorted set of lane names seen so far.
func (r *Recorder) Lanes() []string {
	r.mu.Lock()
	set := map[string]bool{}
	for _, ev := range r.events {
		set[ev.Lane] = true
	}
	r.mu.Unlock()
	lanes := make([]string, 0, len(set))
	for l := range set {
		lanes = append(lanes, l)
	}
	sort.Strings(lanes)
	return lanes
}

// Validate checks structural soundness: no still-open Begin spans, no
// negative durations, and within each lane spans nest properly (a span
// either contains or is disjoint from every earlier overlapping span,
// within a small tolerance for float accumulation).
func (r *Recorder) Validate() error {
	r.mu.Lock()
	nOpen := len(r.open)
	r.mu.Unlock()
	if nOpen > 0 {
		return fmt.Errorf("trace: %d span(s) still open", nOpen)
	}
	const eps = 1e-9
	type openSpan struct {
		name string
		end  float64
	}
	stacks := map[string][]openSpan{}
	for _, ev := range r.Events() {
		if ev.Dur < 0 {
			return fmt.Errorf("trace: %s/%s: negative duration %g", ev.Lane, ev.Name, ev.Dur)
		}
		if ev.Phase != 'X' {
			continue
		}
		stack := stacks[ev.Lane]
		// Pop spans that ended before this one starts.
		for len(stack) > 0 && stack[len(stack)-1].end <= ev.Start+eps {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			if ev.Start+ev.Dur > top.end+eps {
				return fmt.Errorf("trace: %s: span %q [%g, %g) overlaps %q ending %g",
					ev.Lane, ev.Name, ev.Start, ev.Start+ev.Dur, top.name, top.end)
			}
		}
		stacks[ev.Lane] = append(stack, openSpan{name: ev.Name, end: ev.Start + ev.Dur})
	}
	return nil
}

// Metrics derives a registry snapshot from the recorded events. The
// registry is rebuilt from the deterministically ordered event list on
// every call, so snapshots from a serial and a parallel run are equal:
// counters sum integer attributes, and gauges take each lane's final
// value, neither depending on goroutine interleaving.
//
// Derived metrics:
//
//	device_busy_seconds/<lane>   gauge: frontier of each non-host lane
//	energy_joules/<lane>         gauge: sum of energy_j span attributes
//	candidates_total             counter: sum of candidates attributes
//	verified_total               counter: sum of verified attributes
//	enqueues_total/<lane>        counter: enqueue:* spans per lane
//	faults_total                 counter: *-fault instants
//	retries_total                counter: retry instants
//	batch_halvings_total         counter: batch-halved instants
//	failovers_total              counter: failover instants
//	records_skipped_total        counter: record-skipped instants (lenient ingest)
//	records_skipped_total/<reason>  counter: same, broken down by reason attr
//	watchdog_fired_total         counter: watchdog-fired instants (hang kills)
//	device_quarantined_total     counter: breaker-open instants (breaker trips)
//	device_readmitted_total      counter: breaker-closed instants (canary passed)
//	kernel_seconds/<kernel>      gauge: summed enqueue:* span durations per kernel
//	enqueue_seconds              histogram: enqueue:* span durations
//	item_ops                     histogram: per-item op counts (if observed)
//
// When the pre-alignment filter ran (any event carries prefilter
// attributes), three more metrics appear:
//
//	prefilter_rejected_total       counter: candidates rejected by the filter
//	prefilter_false_accepts_total  counter: filter-accepted candidates verification rejected
//	prefilter_filtered_fraction    gauge: rejected / candidates seen by the filter
func (r *Recorder) Metrics() Snapshot {
	reg := NewRegistry()
	energy := map[string]float64{}
	busy := map[string]float64{}
	kernelSec := map[string]float64{}
	enqSec := reg.Histogram("enqueue_seconds", TimeBuckets())
	var prefRejected, prefCands, prefFalseAcc int64
	prefSeen := false
	for _, ev := range r.Events() {
		if end := ev.Start + ev.Dur; ev.Lane != "host" && end > busy[ev.Lane] {
			busy[ev.Lane] = end
		}
		switch ev.Phase {
		case 'X':
			if isEnqueue(ev.Name) {
				reg.Counter("enqueues_total/" + ev.Lane).Add(1)
				enqSec.Observe(ev.Dur)
				kernelSec[ev.Name[len("enqueue:"):]] += ev.Dur
			}
			evCands, evFiltered := int64(0), false
			for _, a := range ev.Attrs {
				switch a.Key {
				case "energy_j":
					if v, ok := a.Value().(float64); ok {
						energy[ev.Lane] += v
					}
				case "candidates":
					if v, ok := a.Value().(int64); ok {
						reg.Counter("candidates_total").Add(v)
						evCands = v
					}
				case "verified":
					if v, ok := a.Value().(int64); ok {
						reg.Counter("verified_total").Add(v)
					}
				case "filtered":
					if v, ok := a.Value().(int64); ok {
						prefRejected += v
						prefSeen, evFiltered = true, true
					}
				case "false_accepts":
					if v, ok := a.Value().(int64); ok {
						prefFalseAcc += v
						prefSeen = true
					}
				}
			}
			// The filtered fraction's denominator counts only candidates
			// of kernels that ran the filter: both attributes ride the
			// same span.
			if evFiltered {
				prefCands += evCands
			}
		case 'i':
			switch ev.Name {
			case "retry":
				reg.Counter("retries_total").Add(1)
			case "batch-halved":
				reg.Counter("batch_halvings_total").Add(1)
			case "failover":
				reg.Counter("failovers_total").Add(1)
			case "watchdog-fired":
				reg.Counter("watchdog_fired_total").Add(1)
			case "breaker-open":
				reg.Counter("device_quarantined_total").Add(1)
			case "breaker-closed":
				reg.Counter("device_readmitted_total").Add(1)
			case "record-skipped":
				reg.Counter("records_skipped_total").Add(1)
				for _, a := range ev.Attrs {
					if a.Key == "reason" {
						if reason, ok := a.Value().(string); ok {
							reg.Counter("records_skipped_total/" + reason).Add(1)
						}
					}
				}
			}
			if isFault(ev.Name) {
				reg.Counter("faults_total").Add(1)
			}
		}
	}
	for lane, sec := range busy {
		reg.Gauge("device_busy_seconds/" + lane).Set(sec)
	}
	for lane, j := range energy {
		reg.Gauge("energy_joules/" + lane).Set(j)
	}
	for kernel, sec := range kernelSec {
		reg.Gauge("kernel_seconds/" + kernel).Set(sec)
	}
	if prefSeen {
		reg.Counter("prefilter_rejected_total").Add(prefRejected)
		reg.Counter("prefilter_false_accepts_total").Add(prefFalseAcc)
		frac := 0.0
		if prefCands > 0 {
			frac = float64(prefRejected) / float64(prefCands)
		}
		reg.Gauge("prefilter_filtered_fraction").Set(frac)
	}
	if r.itemOps.Count() > 0 {
		reg.Histogram("item_ops", OpsBuckets()).copyFrom(r.itemOps)
	}
	return reg.Snapshot()
}

func isEnqueue(name string) bool {
	return len(name) >= len("enqueue:") && name[:len("enqueue:")] == "enqueue:"
}

func isFault(name string) bool {
	const suf = "-fault"
	return len(name) >= len(suf) && name[len(name)-len(suf):] == suf
}
