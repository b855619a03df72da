// Package trace is the observability layer of the simulated OpenCL
// runtime: structured spans and instant events over *simulated* time, a
// metrics registry (counters, gauges, histograms) snapshotable as JSON,
// and a Chrome trace-event exporter so a whole multi-device mapping run
// can be inspected in chrome://tracing or Perfetto.
//
// The paper's evaluation (§IV) is built entirely on per-stage timing,
// power and energy accounting across heterogeneous devices; this package
// makes those quantities visible per event instead of only as end-of-run
// aggregates. Three properties shape the design:
//
//   - Zero dependency: stdlib only, importable from internal/cl without
//     cycles (this package imports nothing from the repository).
//   - Zero hot-path overhead when disabled: every hook takes a
//     *Recorder and nil means tracing is off, so the only cost with
//     tracing off is one nil check per hook.
//   - Determinism: events are keyed on lane ordinals and simulated time,
//     never on wall clocks or map iteration, and exports order lanes and
//     records deterministically — a serial and a parallel host run of the
//     same workload emit byte-identical traces (asserted by the
//     internal/core determinism suite).
//
// A lane is one timeline in the trace: a device's busy-time axis, or the
// host coordinator's makespan axis. Within a lane all events come from a
// single goroutine at a time, which is what makes per-lane record order
// well defined.
package trace

// Attr is one key/value annotation on a span or instant event. Exactly
// one of the value fields is meaningful, per the constructor used.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	i64  int64
	f64  float64
}

type attrKind uint8

const (
	kindString attrKind = iota
	kindInt64
	kindFloat64
)

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: kindString, str: v} }

// I64 builds an integer attribute.
func I64(key string, v int64) Attr { return Attr{Key: key, kind: kindInt64, i64: v} }

// F64 builds a float attribute.
func F64(key string, v float64) Attr { return Attr{Key: key, kind: kindFloat64, f64: v} }

// Value returns the attribute's value as the dynamic type it was built
// with (string, int64 or float64) — the form the JSON exporters consume.
func (a Attr) Value() any {
	switch a.kind {
	case kindInt64:
		return a.i64
	case kindFloat64:
		return a.f64
	default:
		return a.str
	}
}

// SpanID identifies a span opened by Begin; 0 is never a valid id.
type SpanID int64
