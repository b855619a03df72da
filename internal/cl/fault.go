package cl

// Deterministic fault injection for the simulated runtime. Real OpenCL
// deployments on the paper's hardware mix (discrete GPUs on a desktop
// bus, a passively cooled big.LITTLE SoC) fail in well-known ways:
// transient CL_OUT_OF_RESOURCES launch failures, allocation failures
// under memory pressure, thermal throttling, and outright device loss.
// A FaultPlan scripts those failures against a device so the host
// pipeline's recovery paths can be exercised and tested.
//
// Plans are schedule-based, never clock- or rand-based: a fault fires on
// the Nth enqueue or Nth allocation of its device, and a throttle covers
// a window of enqueue ordinals. Serial and parallel host execution issue
// the same per-device enqueue/alloc sequence, so both observe identical
// faults and simulated results stay bit-identical — the same determinism
// contract clvet enforces inside kernels (DESIGN.md §8).
//
// DESIGN.md §9 documents the full fault model and the recovery policies
// internal/core builds on top of this injector.

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// ErrBadFaultPlan is the sentinel behind every ParseFaultPlan failure.
// Parse errors are configuration errors, not runtime faults, so they
// carry no status Code — but they still wrap a package sentinel so
// callers classify them with errors.Is instead of string matching.
var ErrBadFaultPlan = errors.New("cl: bad fault plan")

// Throttle slows a device's effective lane rate within a window of
// enqueues — the simulated analogue of thermal throttling. Factor
// multiplies LaneHz for enqueue ordinals in [From, To] (1-based,
// inclusive): Factor 0.5 halves the rate, doubling the compute portion
// of each covered enqueue's simulated time (launch overhead and host
// transfer are unaffected).
type Throttle struct {
	From, To int
	Factor   float64
}

// FaultPlan schedules deterministic faults for one device. Ordinals are
// 1-based and count attempts, including failed ones — a retry of a
// failed enqueue consumes the next ordinal, so a plan that fails k
// consecutive ordinals defeats k-1 in-place retries. A
// DeviceNotAvailable fault is permanent: every later enqueue and
// allocation on the device fails with the same code.
type FaultPlan struct {
	// FailEnqueues maps an enqueue ordinal to the injected status code
	// (typically OutOfResources or DeviceNotAvailable). The failed
	// enqueue runs no work items and records no event.
	FailEnqueues map[int]Code
	// FailAllocs maps an allocation ordinal to the injected status code
	// (typically MemObjectAllocationFailure). The failed allocation
	// reserves nothing.
	FailAllocs map[int]Code
	// Throttles slow enqueue windows; overlapping windows compound.
	Throttles []Throttle
	// Device restricts which member of a device group the plan targets:
	// 0 (the default) means every device the caller arms; K >= 1 means
	// only the Kth device (1-based) of the group. The injector itself
	// ignores the field — it is addressing metadata for the installer
	// (serve arms a job's plan only on the selected member of the job's
	// partition; ArmEnvFaults arms only the Kth device of its group),
	// which is what lets a multi-device chaos run lose one
	// device while its partition partners stay healthy.
	Device int
}

// faultState is a FaultPlan armed on one device: the plan plus the
// device's ordinal counters, guarded so concurrent queues on one device
// count consistently. The plan's maps are only read — one plan value may
// arm many devices.
type faultState struct {
	mu    sync.Mutex
	plan  FaultPlan
	enq   int
	alloc int
	dead  bool
}

// InstallFaults arms plan on d; nil disarms. Ordinal counters start
// fresh on every call. Installation is synchronised with the enqueue
// and allocation paths, so arming mid-run is safe — though a plan's
// ordinals only make sense counted from before the first enqueue.
func (d *Device) InstallFaults(plan *FaultPlan) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if plan == nil {
		d.faults = nil
		return
	}
	d.faults = &faultState{plan: *plan}
}

// faultState returns the armed fault state, or nil.
func (d *Device) faultState() *faultState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faults
}

// FaultsInstalled reports whether a fault plan is armed on d.
func (d *Device) FaultsInstalled() bool { return d.faultState() != nil }

// FaultOrdinals is a snapshot of a device's fault-injection counters.
// Checkpoints record it so a resumed run can restore the injection
// schedule exactly where the interrupted run stopped: without the
// restore, a resume would replay the plan from ordinal 1 and inject a
// different fault sequence than the uninterrupted run saw.
type FaultOrdinals struct {
	Enqueues int  `json:"enqueues"`
	Allocs   int  `json:"allocs"`
	Dead     bool `json:"dead,omitempty"`
}

// FaultOrdinals snapshots the device's injection counters; ok is false
// when no plan is armed.
func (d *Device) FaultOrdinals() (o FaultOrdinals, ok bool) {
	s := d.faultState()
	if s == nil {
		return FaultOrdinals{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return FaultOrdinals{Enqueues: s.enq, Allocs: s.alloc, Dead: s.dead}, true
}

// RestoreFaultOrdinals seats the device's injection counters at a
// snapshot taken by FaultOrdinals. Call it after InstallFaults and
// before any enqueue; it reports false when no plan is armed.
func (d *Device) RestoreFaultOrdinals(o FaultOrdinals) bool {
	s := d.faultState()
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enq, s.alloc, s.dead = o.Enqueues, o.Allocs, o.Dead
	return true
}

// admitEnqueue advances the device's enqueue ordinal and returns either
// the throttle factor for this enqueue or the injected failure.
func (s *faultState) admitEnqueue(dev, kernel string) (factor float64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enq++
	if s.dead {
		return 1, &Error{Code: DeviceNotAvailable, Op: "enqueue", Device: dev, Kernel: kernel,
			Detail: "device lost"}
	}
	if code, ok := s.plan.FailEnqueues[s.enq]; ok {
		if code == DeviceNotAvailable {
			s.dead = true
		}
		return 1, &Error{Code: code, Op: "enqueue", Device: dev, Kernel: kernel,
			Detail: fmt.Sprintf("injected at enqueue %d", s.enq)}
	}
	factor = 1
	for _, t := range s.plan.Throttles {
		if t.Factor > 0 && s.enq >= t.From && s.enq <= t.To {
			factor *= t.Factor
		}
	}
	return factor, nil
}

// admitAlloc advances the device's allocation ordinal and returns the
// injected failure, if any.
func (s *faultState) admitAlloc(dev string, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.alloc++
	if s.dead {
		return &Error{Code: DeviceNotAvailable, Op: "alloc", Device: dev, Detail: "device lost"}
	}
	if code, ok := s.plan.FailAllocs[s.alloc]; ok {
		if code == DeviceNotAvailable {
			s.dead = true
		}
		return &Error{Code: code, Op: "alloc", Device: dev,
			Detail: fmt.Sprintf("injected at allocation %d (%d B)", s.alloc, size)}
	}
	return nil
}

// ParseFaultPlan parses the compact plan syntax used by the
// REPUTE_CL_FAULTS environment variable: comma-separated directives
//
//	enqN=CODE       fail the Nth enqueue
//	allocN=CODE     fail the Nth allocation
//	throttleA-B=F   multiply LaneHz by F for enqueues A..B
//	device=K        target only the Kth device (1-based) of the group
//	                the installer would arm (see FaultPlan.Device)
//
// with CODE one of "oor" (CL_OUT_OF_RESOURCES), "alloc"
// (CL_MEM_OBJECT_ALLOCATION_FAILURE) or "lost"
// (CL_DEVICE_NOT_AVAILABLE). Example: "enq2=oor,alloc3=alloc,throttle4-6=0.5".
func ParseFaultPlan(s string) (*FaultPlan, error) {
	p := &FaultPlan{FailEnqueues: map[int]Code{}, FailAllocs: map[int]Code{}}
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("%w: directive %q: missing '='", ErrBadFaultPlan, tok)
		}
		switch {
		case key == "device":
			n, err := parseOrdinal(val)
			if err != nil {
				return nil, fmt.Errorf("fault directive %q: %w", tok, err)
			}
			p.Device = n
		case strings.HasPrefix(key, "enq"):
			n, err := parseOrdinal(key[len("enq"):])
			if err != nil {
				return nil, fmt.Errorf("fault directive %q: %w", tok, err)
			}
			code, err := parseFaultCode(val)
			if err != nil {
				return nil, fmt.Errorf("fault directive %q: %w", tok, err)
			}
			p.FailEnqueues[n] = code
		case strings.HasPrefix(key, "alloc"):
			n, err := parseOrdinal(key[len("alloc"):])
			if err != nil {
				return nil, fmt.Errorf("fault directive %q: %w", tok, err)
			}
			code, err := parseFaultCode(val)
			if err != nil {
				return nil, fmt.Errorf("fault directive %q: %w", tok, err)
			}
			p.FailAllocs[n] = code
		case strings.HasPrefix(key, "throttle"):
			froms, tos, ok := strings.Cut(key[len("throttle"):], "-")
			if !ok {
				return nil, fmt.Errorf("%w: directive %q: want throttleA-B=F", ErrBadFaultPlan, tok)
			}
			from, err := parseOrdinal(froms)
			if err != nil {
				return nil, fmt.Errorf("fault directive %q: %w", tok, err)
			}
			to, err := parseOrdinal(tos)
			if err != nil || to < from {
				return nil, fmt.Errorf("%w: directive %q: bad window", ErrBadFaultPlan, tok)
			}
			f, err := strconv.ParseFloat(val, 64)
			// Written so that NaN, which compares false both ways, fails.
			if err != nil || !(f > 0 && f <= 1) {
				return nil, fmt.Errorf("%w: directive %q: factor must be in (0, 1]", ErrBadFaultPlan, tok)
			}
			p.Throttles = append(p.Throttles, Throttle{From: from, To: to, Factor: f})
		default:
			return nil, fmt.Errorf("%w: unknown directive %q", ErrBadFaultPlan, tok)
		}
	}
	return p, nil
}

func parseOrdinal(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("%w: bad ordinal %q (want integer >= 1)", ErrBadFaultPlan, s)
	}
	return n, nil
}

func parseFaultCode(s string) (Code, error) {
	switch s {
	case "oor":
		return OutOfResources, nil
	case "alloc":
		return MemObjectAllocationFailure, nil
	case "lost":
		return DeviceNotAvailable, nil
	}
	return Success, fmt.Errorf("%w: unknown fault code %q (oor, alloc, lost)", ErrBadFaultPlan, s)
}

// EnvFaultPlan returns the fault plan named by the REPUTE_CL_FAULTS
// environment variable, or nil when it is unset. A malformed value
// panics: a chaos run that silently injects nothing would be worse than
// no chaos run.
func EnvFaultPlan() *FaultPlan {
	s := os.Getenv("REPUTE_CL_FAULTS")
	if s == "" {
		return nil
	}
	p, err := ParseFaultPlan(s)
	if err != nil {
		panic("cl: REPUTE_CL_FAULTS: " + err.Error())
	}
	return p
}

// ArmEnvFaults is the chaos hook: it arms EnvFaultPlan on every device of
// the group that has no plan of its own — only on the Kth when the plan
// says device=K — so setting the variable turns any run over those
// devices into a fault-recovery run (CI drives the whole core suite
// through the recovery paths this way). Already-armed devices keep their
// plan and their ordinals, which makes the call idempotent: whoever arms
// first — a checkpointed runner that must seat resumed ordinals before
// the first enqueue, or Pipeline.Map itself — wins.
func ArmEnvFaults(devices []*Device) {
	plan := EnvFaultPlan()
	if plan == nil {
		return
	}
	for i, d := range devices {
		if plan.Device > 0 && plan.Device != i+1 {
			continue
		}
		if !d.FaultsInstalled() {
			d.InstallFaults(plan)
		}
	}
}
