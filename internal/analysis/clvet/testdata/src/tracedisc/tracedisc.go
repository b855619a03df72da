// Testdata for the tracedisc analyzer: span Begin/End pairing on all
// paths, and metric-name conventions at registry call sites.
package tracedisc

import (
	"errors"

	"repro/internal/trace"
)

// deferredEnd is the idiomatic pairing: clean.
func deferredEnd(r *trace.Recorder, t float64) {
	id := r.Begin("device0", "enqueue", t)
	defer r.End(id, t+1)
	work()
}

// deferredClosure ends inside a deferred closure: clean.
func deferredClosure(r *trace.Recorder, t float64) {
	id := r.Begin("device0", "enqueue", t)
	defer func() {
		r.End(id, t+1)
	}()
	work()
}

// inlineSingle ends before the only return: clean.
func inlineSingle(r *trace.Recorder, t float64) {
	id := r.Begin("device0", "enqueue", t)
	work()
	r.End(id, t+1)
}

// discarded can never be ended.
func discarded(r *trace.Recorder, t float64) {
	r.Begin("device0", "enqueue", t) // want `span id returned by Begin is discarded`
}

// neverEnded opens a span and forgets it.
func neverEnded(r *trace.Recorder, t float64) trace.SpanID {
	id := r.Begin("device0", "enqueue", t) // want `span begun here is never Ended`
	work()
	return id
}

// earlyReturn leaves the span open on the error path.
func earlyReturn(r *trace.Recorder, t float64) error {
	id := r.Begin("device0", "enqueue", t) // want `span begun here is not Ended before every return`
	if err := mayFail(); err != nil {
		return err
	}
	r.End(id, t+1)
	return nil
}

// allowedBegin defers ending to a helper the analyzer cannot see.
func allowedBegin(r *trace.Recorder, t float64) trace.SpanID {
	//repute:allow tracedisc -- span handed to the caller, ended there
	return r.Begin("device0", "enqueue", t)
}

// metrics exercises the naming conventions.
func metrics(reg *trace.Registry, lane string) {
	reg.Counter("reads_total").Add(1)
	reg.Counter("enqueues_total/" + lane).Add(1)
	reg.Gauge("queue_depth").Set(3)
	reg.Histogram("enqueue_seconds", []float64{0.1, 1}).Observe(0.2)

	reg.Counter("reads").Add(1)              // want `counter "reads" must name its family with a _total suffix`
	reg.Gauge("depth_total").Set(1)          // want `gauge "depth_total" must not use the _total suffix`
	reg.Counter("Reads_total").Add(1)        // want `family segment "Reads_total" is not snake_case`
	reg.Counter("reads_total/Lane-0").Add(1) // want `segment "Lane-0" is not snake_case`
}

func work() {}

func mayFail() error { return errors.New("x") }
