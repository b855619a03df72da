// Package cl is a simulated OpenCL 1.2 host runtime: platforms, devices,
// contexts, buffers, kernels and ND-range queues with the same shape as
// the real API. It stands in for the OpenCL stacks of the paper's two
// systems (Intel i7-2600 + 2× GTX 590, and the HiKey970 big.LITTLE SoC),
// which this reproduction has no access to.
//
// Kernels are ordinary Go functions that do the real algorithmic work;
// while running they charge abstract operation counts (FM-index steps, DP
// cells, Myers word-updates, ...) to their work item. A per-device
// performance model converts the counts into simulated seconds and an
// energy model into joules, so cross-device comparisons reproduce the
// paper's shape: the work is real, only the clock is modelled.
//
// The two OpenCL 1.2 restrictions the paper designs around are enforced:
//
//   - no dynamic allocation inside kernels — outputs go to fixed-size
//     buffers allocated up front (the "first-n locations" policy);
//   - a single buffer may not exceed 1/4 of device memory
//     (CL_DEVICE_MAX_MEM_ALLOC_SIZE), which forces batching on the GPUs.
package cl

import (
	"fmt"
	"sync"

	"repro/internal/trace"
)

// DeviceType mirrors CL_DEVICE_TYPE_*.
type DeviceType int

// Device types.
const (
	CPU DeviceType = iota
	GPU
	Accelerator
)

func (t DeviceType) String() string {
	switch t {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	default:
		return "ACCEL"
	}
}

// Cost counts the abstract operations a work item performed. Fields are
// the units the mapper kernels execute; each device weighs them into
// cycles via its Weights.
type Cost struct {
	FMSteps     int64 // FM-index backward-search extensions (random access)
	DPCells     int64 // seed-selection DP cell updates
	VerifyWords int64 // Myers bit-vector 64-bit word-column updates
	FilterWords int64 // pre-alignment shifted-Hamming 64-bit word-lane steps
	HashProbes  int64 // q-gram index bucket probes
	LocateSteps int64 // suffix-array locate resolutions
	Bytes       int64 // bulk data movement (host<->device when discrete)
	Items       int64 // per-work-item fixed overhead units

	// Candidates, Verified, Filtered and FalseAccepts are
	// observability-only tallies: candidate locations that survived
	// seed-level filtration, candidates accepted by verification,
	// candidates rejected by the pre-alignment filter, and
	// filter-accepted candidates the verifier then rejected. They carry
	// no Weights entry, so they never influence simulated time or
	// energy — they exist so traces and metrics can report the paper's
	// filtration/verification breakdown per event.
	Candidates   int64
	Verified     int64
	Filtered     int64
	FalseAccepts int64
}

// Add accumulates o into c.
func (c *Cost) Add(o Cost) {
	c.FMSteps += o.FMSteps
	c.DPCells += o.DPCells
	c.VerifyWords += o.VerifyWords
	c.FilterWords += o.FilterWords
	c.HashProbes += o.HashProbes
	c.LocateSteps += o.LocateSteps
	c.Bytes += o.Bytes
	c.Items += o.Items
	c.Candidates += o.Candidates
	c.Verified += o.Verified
	c.Filtered += o.Filtered
	c.FalseAccepts += o.FalseAccepts
}

// Ops returns the total algorithmic operation count — every weighted
// unit except data movement (Bytes) and the observability tallies. It is
// the scalar the per-item work histogram observes.
func (c Cost) Ops() int64 {
	return c.FMSteps + c.DPCells + c.VerifyWords + c.FilterWords + c.HashProbes + c.LocateSteps + c.Items
}

// Weights are the per-operation cycle costs of a device lane.
type Weights struct {
	FMStep     float64
	DPCell     float64
	VerifyWord float64
	FilterWord float64
	HashProbe  float64
	LocateStep float64
	Byte       float64
	Item       float64
}

// Cycles converts a cost into device-lane cycles.
func (w Weights) Cycles(c Cost) float64 {
	return float64(c.FMSteps)*w.FMStep +
		float64(c.DPCells)*w.DPCell +
		float64(c.VerifyWords)*w.VerifyWord +
		float64(c.FilterWords)*w.FilterWord +
		float64(c.HashProbes)*w.HashProbe +
		float64(c.LocateSteps)*w.LocateStep +
		float64(c.Bytes)*w.Byte +
		float64(c.Items)*w.Item
}

// Device models one OpenCL device.
type Device struct {
	Name         string
	Type         DeviceType
	ComputeUnits int
	// LanesPerCU is how many work items a compute unit co-executes at
	// full occupancy (SIMT width on GPUs, 1 on scalar cores).
	LanesPerCU int
	// LaneHz is the effective issue rate of one lane in cycles/second.
	LaneHz float64
	// PrivateMemPerCU bounds the summed private memory of the work
	// items resident on one CU; kernels that need more per item reduce
	// occupancy — the effect behind the paper's Smin/footprint trade-off.
	PrivateMemPerCU int64
	GlobalMem       int64
	// MaxAlloc is CL_DEVICE_MAX_MEM_ALLOC_SIZE; OpenCL guarantees only
	// GlobalMem/4 and the paper leans on exactly that limit.
	MaxAlloc int64
	// PowerW is the marginal (above idle) power drawn while busy.
	PowerW  float64
	Weights Weights
	// LaunchOverheadSec is charged once per ND-range enqueue.
	LaunchOverheadSec float64
	// TransferBytesPerSec models the host link for discrete devices;
	// 0 means host-shared memory (no transfer cost).
	TransferBytesPerSec float64

	// mu guards the mutable tail of the device; the exported
	// capability fields above are set once at construction and read
	// freely.
	mu sync.Mutex
	// faults is the armed fault-injection plan plus its ordinal
	// counters; nil (the default) injects nothing. See InstallFaults.
	faults *faultState // guarded by mu
	// breaker is the device's circuit breaker, closed at creation; it
	// carries its own lock.
	breaker Breaker
}

// Occupancy returns how many work items one CU co-executes for a kernel
// needing privateBytes of private memory per item.
func (d *Device) Occupancy(privateBytes int64) int {
	lanes := d.LanesPerCU
	if lanes < 1 {
		lanes = 1
	}
	if privateBytes > 0 && d.PrivateMemPerCU > 0 {
		fit := int(d.PrivateMemPerCU / privateBytes)
		if fit < 1 {
			fit = 1
		}
		if fit < lanes {
			lanes = fit
		}
	}
	return lanes
}

// Platform groups devices, mirroring clGetPlatformIDs.
type Platform struct {
	Name    string
	Devices []*Device
}

// Context owns buffers for a set of devices.
type Context struct {
	mu        sync.Mutex
	allocated map[*Device]int64 // guarded by mu
	// tracer receives alloc/free instants; nil when tracing is off. Set
	// it before sharing the context across goroutines (SetTracer is not
	// synchronised against in-flight allocations).
	tracer *trace.Recorder
}

// SetTracer installs a tracer on the context; buffer allocations, frees
// and allocation failures emit instant events on the owning device's
// lane. A nil tracer disables tracing at zero cost.
func (c *Context) SetTracer(t *trace.Recorder) { c.tracer = t }

// NewContext returns an empty context.
func NewContext() *Context {
	return &Context{allocated: make(map[*Device]int64)}
}

// Buffer is a device allocation. Only its size is modelled; kernel data
// lives in ordinary Go memory.
type Buffer struct {
	ctx  *Context
	dev  *Device
	size int64
	free bool // guarded by ctx.mu
}

// AllocError describes a failed buffer allocation.
type AllocError struct {
	Device    string
	Requested int64
	Limit     int64
	Reason    string
}

func (e *AllocError) Error() string {
	return fmt.Sprintf("cl: alloc %d B on %s: %s (limit %d B)",
		e.Requested, e.Device, e.Reason, e.Limit)
}

// Is folds AllocError into the status-code taxonomy (errors.go): it
// matches the MemObjectAllocationFailure sentinel under errors.Is, like
// the *Error an injected allocation fault produces.
func (e *AllocError) Is(target error) bool {
	c, ok := target.(Code)
	return ok && c == MemObjectAllocationFailure
}

// AllocBuffer reserves size bytes on dev, enforcing the MaxAlloc and
// total-memory limits.
func (c *Context) AllocBuffer(dev *Device, size int64) (*Buffer, error) {
	b, err := c.allocBuffer(dev, size)
	if t := c.tracer; t != nil {
		if err != nil {
			t.Instant(dev.Name, "alloc-fault",
				trace.I64("bytes", size), trace.Str("error", err.Error()))
		} else {
			t.Instant(dev.Name, "alloc",
				trace.I64("bytes", size), trace.I64("allocated_bytes", c.Allocated(dev)))
		}
	}
	// Only failures feed the breaker here: a successful allocation is
	// cheap bookkeeping, and letting it decay the failure score would
	// mask a device whose kernels keep dying between buffer setups.
	if err != nil {
		feedBreaker(dev, err, c.tracer)
	}
	return b, err
}

func (c *Context) allocBuffer(dev *Device, size int64) (*Buffer, error) {
	if size <= 0 {
		return nil, &AllocError{Device: dev.Name, Requested: size, Reason: "non-positive size"}
	}
	if fs := dev.faultState(); fs != nil {
		if err := fs.admitAlloc(dev.Name, size); err != nil {
			return nil, err
		}
	}
	if size > dev.MaxAlloc {
		return nil, &AllocError{
			Device: dev.Name, Requested: size, Limit: dev.MaxAlloc,
			Reason: "exceeds CL_DEVICE_MAX_MEM_ALLOC_SIZE (1/4 of device RAM)",
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.allocated[dev]+size > dev.GlobalMem {
		return nil, &AllocError{
			Device: dev.Name, Requested: size, Limit: dev.GlobalMem - c.allocated[dev],
			Reason: "device memory exhausted",
		}
	}
	c.allocated[dev] += size
	return &Buffer{ctx: c, dev: dev, size: size}, nil
}

// Allocated reports the bytes currently reserved on dev.
func (c *Context) Allocated(dev *Device) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.allocated[dev]
}

// Size returns the buffer size in bytes, or 0 for a nil buffer (the
// same nil-receiver contract as Free and Valid). Using a buffer after
// Free is a host-program bug — the real API would return
// CL_INVALID_MEM_OBJECT — so it panics with a clear message instead of
// silently succeeding.
func (b *Buffer) Size() int64 {
	if b == nil {
		return 0
	}
	b.ctx.mu.Lock()
	defer b.ctx.mu.Unlock()
	if b.free {
		panic(fmt.Sprintf("cl: use of freed %d-byte buffer on %s (CL_INVALID_MEM_OBJECT)",
			b.size, b.dev.Name))
	}
	return b.size
}

// Valid reports whether the buffer is still allocated.
func (b *Buffer) Valid() bool {
	if b == nil {
		return false
	}
	b.ctx.mu.Lock()
	defer b.ctx.mu.Unlock()
	return !b.free
}

// Free releases the buffer; double frees are no-ops. The freed flag is
// checked and set under the context lock so that two goroutines racing
// on the same buffer cannot both observe it live and double-decrement
// the device's allocation accounting.
func (b *Buffer) Free() {
	if b == nil {
		return
	}
	b.ctx.mu.Lock()
	defer b.ctx.mu.Unlock()
	if b.free {
		return
	}
	b.free = true
	b.ctx.allocated[b.dev] -= b.size
	if t := b.ctx.tracer; t != nil {
		t.Instant(b.dev.Name, "free",
			trace.I64("bytes", b.size), trace.I64("allocated_bytes", b.ctx.allocated[b.dev]))
	}
}

// WorkItem is passed to a kernel body for each global index.
type WorkItem struct {
	Global int
	cost   Cost
}

// Charge records operations performed by this work item.
func (wi *WorkItem) Charge(c Cost) { wi.cost.Add(c) }

// Cost returns the operations charged to this work item so far. Kernel
// instrumentation (core.instrumentKernel) reads it after the inner body
// returns to feed the per-item work histogram.
func (wi *WorkItem) Cost() Cost { return wi.cost }

// Kernel is a compiled kernel: a Go function plus the private-memory
// declaration the occupancy model needs. Bodies must not allocate output
// space dynamically — OpenCL 1.2 kernels cannot, so outputs go through
// fixed slots prepared by the host.
//
// A kernel body may run on several host workers at once (see ExecMode),
// so it must not capture mutable scratch from its enclosing scope. All
// per-item working memory — reusable buffers, candidate lists, verifier
// state — belongs in the value returned by NewState, which mirrors
// OpenCL private/local memory: each host worker gets its own instance
// and passes it to every Body invocation it executes. Bodies may still
// write to disjoint per-item output slots (out[wi.Global]) and read
// shared immutable inputs, exactly like a real __global buffer.
type Kernel struct {
	Name string
	// PrivateBytesPerItem declares the kernel's private working set; it
	// throttles GPU occupancy and is validated against nothing else.
	PrivateBytesPerItem int64
	// NewState builds one worker's private state. It is called once per
	// host worker per enqueue (once total under Serial execution) and
	// the result is threaded through every Body call on that worker.
	// nil means the kernel is stateless and Body receives nil.
	NewState func() any
	Body     func(wi *WorkItem, state any)
}

// Event records one completed ND-range execution.
type Event struct {
	Kernel     string
	GlobalSize int
	Cost       Cost
	SimSeconds float64
}

// Queue issues work to one device. Enqueued ranges execute immediately
// (in-order queue); Finish aggregates their simulated timing. A queue is
// owned by one host goroutine — the work-group scheduler parallelises
// *inside* an enqueue, and multi-device hosts use one queue per device.
type Queue struct {
	dev    *Device
	events []Event
	mode   ExecMode
	// Running totals over events, maintained on append so Finish and
	// EnergyJ are O(1) however often the host polls them per batch.
	busyTotal float64
	costTotal Cost
	// tracer receives enqueue/penalty spans on the device's lane; nil
	// means tracing is off and the hot path pays one nil check.
	// traceOrigin offsets the lane's timestamps so successive runs on
	// fresh queues (successive batches of one stream) extend one
	// timeline instead of overlapping at zero.
	tracer      *trace.Recorder
	traceOrigin float64
}

// NewQueue creates an in-order queue on dev in Auto execution mode.
func NewQueue(dev *Device) *Queue { return &Queue{dev: dev} }

// Device returns the queue's device.
func (q *Queue) Device() *Device { return q.dev }

// SetExecMode pins this queue to a host execution mode; Auto (the zero
// value) runs parallel whenever GOMAXPROCS allows more than one worker.
func (q *Queue) SetExecMode(m ExecMode) { q.mode = m }

// SetTracer installs a tracer on the queue; enqueues and penalty charges
// emit spans on the device's lane over simulated time. A nil tracer
// disables tracing at zero cost (asserted by TestNoopTracerZeroCost and
// the enqueue benchmarks).
func (q *Queue) SetTracer(t *trace.Recorder) { q.tracer = t }

// SetTraceOrigin sets the simulated-time offset added to every span this
// queue emits. The queue's own busy clock always starts at zero; the
// origin places it on a longer timeline (e.g. the next Map call of one
// stream starting where the previous batch ended).
func (q *Queue) SetTraceOrigin(sec float64) { q.traceOrigin = sec }

// EnqueueNDRange runs kernel over globalSize work items and records the
// event. Work items are dispatched to host workers in work-groups (see
// ExecMode); simulated cost, seconds and energy are identical to serial
// execution by construction. A panic in any kernel body — on any worker —
// is converted into a single error, matching a CL_OUT_OF_RESOURCES-style
// launch failure rather than a host crash.
//
// When a fault plan is armed on the device (InstallFaults), the enqueue
// first passes through the injector: a scheduled fault fails the launch
// with a typed *Error — no work items run, no event is recorded, no cost
// is charged — and a scheduled throttle slows the event's compute time.
//
//repute:hotpath
func (q *Queue) EnqueueNDRange(k *Kernel, globalSize int) (Event, error) {
	if globalSize < 0 {
		return Event{}, &Error{
			Code: InvalidGlobalWorkSize, Op: "enqueue", Device: q.dev.Name, Kernel: k.Name,
			Detail: fmt.Sprintf("negative global size %d", globalSize),
		}
	}
	throttle := 1.0
	if fs := q.dev.faultState(); fs != nil {
		factor, ferr := fs.admitEnqueue(q.dev.Name, k.Name)
		if ferr != nil {
			if t := q.tracer; t != nil {
				t.Instant(q.dev.Name, "enqueue-fault",
					trace.Str("kernel", k.Name), trace.Str("error", ferr.Error()))
			}
			feedBreaker(q.dev, ferr, q.tracer)
			return Event{}, ferr
		}
		throttle = factor
	}
	total, err := q.mode.run(k, globalSize)
	if err != nil {
		if t := q.tracer; t != nil {
			t.Instant(q.dev.Name, "enqueue-fault",
				trace.Str("kernel", k.Name), trace.Str("error", err.Error()))
		}
		feedBreaker(q.dev, err, q.tracer)
		return Event{}, err
	}
	ev := Event{
		Kernel:     k.Name,
		GlobalSize: globalSize,
		Cost:       total,
		SimSeconds: q.dev.simSeconds(k, total, throttle),
	}
	// Hang watchdog: compare a throttled duration against watchdogMultiple
	// × the cost model's unthrottled expectation for the same work (an
	// unthrottled enqueue is its own expectation and cannot overrun). An
	// overrun means the runtime would have killed the command at the
	// budget: the device is charged exactly the budget, no event or cost
	// is recorded (the retry re-executes the idempotent kernel), and the
	// caller gets the typed transient timeout.
	if throttle < 1 {
		if budget := watchdogMultiple * q.dev.simSeconds(k, total, 1); ev.SimSeconds > budget {
			q.ChargePenalty(budget)
			werr := &Error{
				Code: CommandTerminated, Op: "enqueue", Device: q.dev.Name, Kernel: k.Name,
				Detail: fmt.Sprintf("watchdog: %.3gs exceeds %d× expected %.3gs",
					ev.SimSeconds, watchdogMultiple, budget/watchdogMultiple),
			}
			if t := q.tracer; t != nil {
				// The attributes allocate on the tracing-enabled path only,
				// once per watchdog kill.
				t.Instant(q.dev.Name, "watchdog-fired",
					trace.Str("kernel", k.Name),
					trace.F64("budget_sec", budget),
					trace.F64("overrun_sec", ev.SimSeconds))
			}
			feedBreaker(q.dev, werr, q.tracer)
			return Event{}, werr
		}
	}
	feedBreaker(q.dev, nil, q.tracer)
	busyStart := q.busyTotal
	q.events = append(q.events, ev)
	q.busyTotal += ev.SimSeconds
	q.costTotal.Add(ev.Cost)
	if t := q.tracer; t != nil {
		// The attributes allocate on the tracing-enabled path only; the
		// zero-cost contract is tracer-off.
		attrs := []trace.Attr{
			trace.I64("global_size", int64(globalSize)),
			trace.F64("energy_j", ev.SimSeconds*q.dev.PowerW),
			trace.I64("fm_steps", total.FMSteps),
			trace.I64("dp_cells", total.DPCells),
			trace.I64("verify_words", total.VerifyWords),
			trace.I64("locate_steps", total.LocateSteps),
			trace.I64("bytes", total.Bytes),
			trace.I64("candidates", total.Candidates),
			trace.I64("verified", total.Verified),
		}
		if throttle != 1 {
			//repute:allow hotalloc -- tracing-enabled path only, one append per throttled enqueue
			attrs = append(attrs, trace.F64("throttle", throttle))
		}
		if total.FilterWords > 0 || total.Filtered > 0 || total.FalseAccepts > 0 {
			//repute:allow hotalloc -- tracing-enabled path only, one append per enqueue of a kernel that ran the filter
			attrs = append(attrs, trace.I64("filter_words", total.FilterWords),
				trace.I64("filtered", total.Filtered),
				trace.I64("false_accepts", total.FalseAccepts))
		}
		t.Span(q.dev.Name, "enqueue:"+k.Name,
			q.traceOrigin+busyStart, ev.SimSeconds, attrs...)
	}
	return ev, nil
}

// simSeconds converts a kernel's aggregate cost into simulated seconds on
// the device. throttle scales the effective lane rate (1 = full speed);
// launch overhead and host transfer are rate-independent.
func (d *Device) simSeconds(k *Kernel, c Cost, throttle float64) float64 {
	cycles := d.Weights.Cycles(c)
	parallel := float64(d.ComputeUnits * d.Occupancy(k.PrivateBytesPerItem))
	if parallel < 1 {
		parallel = 1
	}
	hz := d.LaneHz
	if throttle > 0 {
		hz *= throttle
	}
	t := cycles / (parallel * hz)
	t += d.LaunchOverheadSec
	if d.TransferBytesPerSec > 0 && c.Bytes > 0 {
		t += float64(c.Bytes) / d.TransferBytesPerSec
	}
	return t
}

// Events returns a copy of the recorded events. Callers may sort, filter
// or append to the result without corrupting the queue's log.
func (q *Queue) Events() []Event {
	out := make([]Event, len(q.events))
	copy(out, q.events)
	return out
}

// ChargePenalty adds sec simulated seconds of non-kernel device time to
// the queue — retry backoff, recovery pauses — so Finish and EnergyJ
// account recovery the way they account kernel work. Non-positive
// charges are ignored.
func (q *Queue) ChargePenalty(sec float64) {
	if sec <= 0 {
		return
	}
	if t := q.tracer; t != nil {
		t.Span(q.dev.Name, "penalty", q.traceOrigin+q.busyTotal, sec,
			trace.F64("energy_j", sec*q.dev.PowerW))
	}
	q.busyTotal += sec
}

// Finish returns the queue's total simulated busy time and the summed
// cost, mirroring clFinish plus profiling-event collection. The totals
// are maintained incrementally as events append, so polling per batch
// stays O(1) instead of re-summing the event log.
func (q *Queue) Finish() (busySeconds float64, total Cost) {
	return q.busyTotal, q.costTotal
}

// EnergyJ returns the marginal energy the queue's device spent on its
// recorded events: busy time × device active power.
func (q *Queue) EnergyJ() float64 {
	return q.busyTotal * q.dev.PowerW
}

// Reset clears recorded events and the running totals so a queue can be
// reused between runs.
func (q *Queue) Reset() {
	q.events = q.events[:0]
	q.busyTotal = 0
	q.costTotal = Cost{}
}
