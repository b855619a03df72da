package cl

// Typed error taxonomy for the simulated runtime, mirroring the OpenCL
// status codes a real host program has to classify before it can be
// fault-tolerant: a CL_OUT_OF_RESOURCES launch failure is worth retrying
// on the same device, an allocation failure calls for smaller buffers,
// and CL_DEVICE_NOT_AVAILABLE means the device is gone and its work must
// fail over. internal/core implements exactly those policies on top of
// this classification.

import (
	"errors"
	"fmt"
)

// Code is an OpenCL status code. Code itself implements error, so the
// constants double as errors.Is sentinels against any wrapped *Error or
// *AllocError the runtime produces:
//
//	if errors.Is(err, cl.DeviceNotAvailable) { ... fail over ... }
type Code int32

// Status codes (values as in cl.h).
const (
	Success                    Code = 0
	DeviceNotAvailable         Code = -2
	MemObjectAllocationFailure Code = -4
	OutOfResources             Code = -5
	InvalidMemObject           Code = -38
	InvalidGlobalWorkSize      Code = -63
	// CommandTerminated is the synthetic status the hang watchdog raises
	// when an enqueue overruns its simulated-time budget.
	// The value is ARM's cl_arm_terminate extension code
	// CL_COMMAND_TERMINATED_ITSELF_WITH_FAILURE_ARM — the one real OpenCL
	// status that means "the runtime killed a running command" — so the
	// taxonomy stays within codes an embedded deployment would actually see.
	CommandTerminated Code = -1108
)

func (c Code) String() string {
	switch c {
	case Success:
		return "CL_SUCCESS"
	case DeviceNotAvailable:
		return "CL_DEVICE_NOT_AVAILABLE"
	case MemObjectAllocationFailure:
		return "CL_MEM_OBJECT_ALLOCATION_FAILURE"
	case OutOfResources:
		return "CL_OUT_OF_RESOURCES"
	case InvalidMemObject:
		return "CL_INVALID_MEM_OBJECT"
	case InvalidGlobalWorkSize:
		return "CL_INVALID_GLOBAL_WORK_SIZE"
	case CommandTerminated:
		return "CL_COMMAND_TERMINATED_ITSELF_WITH_FAILURE_ARM"
	default:
		return fmt.Sprintf("CL_ERROR(%d)", int32(c))
	}
}

// Error implements the error interface so a bare Code can be an
// errors.Is target.
func (c Code) Error() string { return c.String() }

// Transient reports whether the condition may clear on its own and is
// worth retrying on the same device: launch and allocation resources can
// come back (another kernel retires, a buffer frees, thermal headroom
// returns), and a watchdog-terminated command was killed for running
// slow, not for computing wrong — the re-execution is bit-identical and
// may land outside the throttle window; a lost device does not.
func (c Code) Transient() bool {
	switch c {
	case OutOfResources, MemObjectAllocationFailure, CommandTerminated:
		return true
	}
	return false
}

// Error is a classified runtime failure: an OpenCL-style status code plus
// where it happened. It wraps an underlying cause when there is one and
// matches its Code under errors.Is.
type Error struct {
	Code   Code
	Op     string // "enqueue", "alloc" or "launch"
	Device string
	Kernel string // kernel name, when the failure is tied to one
	Detail string
	Err    error // wrapped cause, may be nil
}

func (e *Error) Error() string {
	s := "cl: " + e.Op
	if e.Kernel != "" {
		s += " " + e.Kernel
	}
	if e.Device != "" {
		s += " on " + e.Device
	}
	s += ": " + e.Code.String()
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Is matches the status-code sentinels: errors.Is(err, cl.OutOfResources).
func (e *Error) Is(target error) bool {
	c, ok := target.(Code)
	return ok && c == e.Code
}

// CodeOf extracts the status code carried by err: the code of the first
// *Error in its chain, MemObjectAllocationFailure for an *AllocError, or
// Success when err carries no code (including err == nil).
func CodeOf(err error) Code {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	var ae *AllocError
	if errors.As(err, &ae) {
		return MemObjectAllocationFailure
	}
	return Success
}

// IsTransient reports whether err should be retried in place on the same
// device. Injected and runtime faults classify by their code; two cases
// are permanent regardless:
//
//   - kernel panics (Op "launch") are deterministic host-program bugs —
//     retrying re-executes the same panic;
//   - structural *AllocError conditions (a buffer over
//     CL_DEVICE_MAX_MEM_ALLOC_SIZE, device memory exhausted) repeat
//     identically at the same size — callers shrink the request (batch
//     halving) instead of retrying it.
func IsTransient(err error) bool {
	var e *Error
	if errors.As(err, &e) {
		return e.Op != "launch" && e.Code.Transient()
	}
	return false
}

// IsAllocFailure reports whether err is an allocation failure of either
// kind — an injected CL_MEM_OBJECT_ALLOCATION_FAILURE or a structural
// *AllocError — the class batch halving can recover from.
func IsAllocFailure(err error) bool {
	return errors.Is(err, MemObjectAllocationFailure)
}

// IsDeviceLost reports whether err marks the device permanently gone.
func IsDeviceLost(err error) bool {
	return errors.Is(err, DeviceNotAvailable)
}

// IsWatchdogTimeout reports whether err is a hang-watchdog termination —
// the synthetic CommandTerminated fault a watchdog budget overrun
// raises. Watchdog kills are transient (IsTransient is also
// true), so the retry/failover machinery needs no special case; this
// predicate exists for accounting (FaultStats.WatchdogFires) and for
// breaker policies that weight hangs differently from resource squeezes.
func IsWatchdogTimeout(err error) bool {
	return errors.Is(err, CommandTerminated)
}
