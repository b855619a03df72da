package serve

// The scheduler and per-job runner. One dispatcher goroutine walks the
// FIFO queue head-of-line: the oldest queued job states how many
// devices it wants (?devices=K, default 1), the partition allocator
// hands out that many breaker-healthy free devices, and the job runs on
// its own goroutine over its disjoint partition — up to MaxConcurrent
// jobs at once. Admission order still decides who gets devices next
// (fairness by construction); a job waits only while no healthy device
// is free. Fault isolation follows from the partition shape: a job's
// fault plan (X-Repute-Faults) is installed only on that job's
// partition devices just before its attempt and unconditionally
// disarmed after, so an injected device loss dies with the job that
// asked for it. What outlives the job is the device's breaker state —
// by design: a tripped breaker stays open until its cooldown of
// allocator decisions is over, then half-opens, and a canary job
// re-proves it (DESIGN.md §17).

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/fastx"
	"repro/internal/mapper"
	"repro/internal/seed"
	"repro/internal/trace"
)

// runner is the dispatcher goroutine: peek the oldest queued job, carve
// its partition out of the pool, hand it to a worker goroutine, repeat;
// block on wake when idle or saturated; exit on stop after every worker
// has finished. Workers never die mid-attempt — drain interrupts each
// attempt at a batch boundary via the emit callback, and the dispatcher
// waits for them before reporting done.
func (s *Server) runner() {
	defer close(s.runnerDone)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		select {
		case <-s.stopCh:
			return
		default:
		}
		if int(s.active.Load()) >= s.cfg.MaxConcurrent {
			s.waitWake()
			continue
		}
		head, ok := s.store.peek()
		if !ok {
			s.updateGauges()
			s.waitWake()
			continue
		}
		idx, devs, got := s.alloc.acquire(head.Devices)
		if !got {
			// Head-of-line blocking: the oldest job waits for devices, and
			// younger jobs wait behind it — fairness over utilisation. An
			// open breaker never blocks acquire (cl.Admit half-opens it when
			// too few free devices are left without it) and no queued job
			// asks for more than the pool, so jobs are running and one of
			// them will free devices and wake us.
			s.waitWake()
			continue
		}
		names := make([]string, len(devs))
		for i, d := range devs {
			names[i] = d.Name
		}
		job, ok := s.store.dequeue(names)
		if !ok {
			s.alloc.release(idx)
			continue
		}
		s.active.Add(1)
		s.updateGauges()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.runJob(job, devs)
			s.alloc.release(idx)
			s.active.Add(-1)
			s.updateGauges()
			s.wakeUp()
		}()
	}
}

// waitWake blocks until a worker frees capacity, a submit queues work,
// or drain begins.
func (s *Server) waitWake() {
	select {
	case <-s.wake:
	case <-s.stopCh:
	}
}

// wakeUp nudges the dispatcher without blocking.
func (s *Server) wakeUp() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// runJob executes one attempt of a job over its device partition and
// applies the outcome to the job state machine: success → done, drain
// stop → interrupted (resumable), deadline → failed (no retry),
// anything else → requeue while the retry budget lasts, then failed
// with the typed cl error.
func (s *Server) runJob(job Job, devs []*cl.Device) {
	rec := trace.NewRecorder()
	err := s.runAttempt(job, rec, devs)
	// The attempt's trace replaces the previous one in the job's spool
	// directory, where /trace/{id} serves it from.
	if terr := s.store.writeTrace(job.ID, rec); terr != nil && err == nil {
		err = terr
	}

	// The attempt's metrics fold into the service registry exactly once
	// per attempt, whatever the outcome — a failed attempt's retries and
	// injected faults are part of the service's story too.
	if aerr := s.reg.Apply(rec.Metrics()); aerr != nil && err == nil {
		err = aerr
	}

	switch {
	case err == nil:
		j, _ := s.store.update(job.ID, func(j *Job) {
			j.State = StateDone
			j.Resumable = false
			j.Error = nil
		})
		s.reg.Counter(metricJobsCompleted).Add(1)
		s.reg.Histogram(metricJobSimSeconds, trace.TimeBuckets()).Observe(j.SimSeconds)
	case errors.Is(err, core.Stop):
		s.store.update(job.ID, func(j *Job) { //nolint:errcheck
			j.State = StateInterrupted
			j.Resumable = true
		})
		s.reg.Counter(metricJobsInterrupted).Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		s.store.update(job.ID, func(j *Job) { //nolint:errcheck
			j.State = StateFailed
			j.Error = &JobError{Kind: "deadline", Message: fmt.Sprintf("deadline %d ms exceeded", j.DeadlineMS)}
		})
		s.reg.Counter(metricJobsFailed).Add(1)
	default:
		// Bad input never improves on retry; everything else may (transient
		// resource pressure, injected chaos) and earns the budget.
		if job.Attempts <= s.cfg.RetryBudget && !errors.Is(err, errBadInput) {
			s.store.requeue(job.ID)
			s.reg.Counter(metricJobsRetried).Add(1)
			return
		}
		kind := "internal"
		if errors.Is(err, errBadInput) {
			kind = "input"
		}
		s.store.update(job.ID, func(j *Job) { //nolint:errcheck
			j.State = StateFailed
			j.Error = classifyError(kind, err)
		})
		s.reg.Counter(metricJobsFailed).Add(1)
	}
}

// errBadInput marks failures caused by the job's own payload (reads
// that don't parse), which classify as "input" rather than "internal".
var errBadInput = errors.New("serve: bad input")

// runAttempt runs one stream-runner pass (RunStream) over the job's
// spooled reads, resuming from the job's checkpoint when one exists. It
// supplies the service's side of the run: the per-job fingerprint and
// fault plan, the deadline, and the progress/drain hook.
func (s *Server) runAttempt(job Job, rec *trace.Recorder, devs []*cl.Device) error {
	cfg := core.Config{Name: "REPUTE", Selector: seed.REPUTE{}, Tracer: rec}
	if len(devs) > 1 && !s.file.Meta.Sharded() {
		// A nil split sends every read of a whole-reference index to the
		// first device; a multi-device partition wants the whole partition
		// busy. The pool is homogeneous, so even shares are the
		// deterministic choice. (Several shards already spread the work
		// round-robin and reject a split.)
		cfg.Split = make([]float64, len(devs))
		for i := range cfg.Split {
			cfg.Split[i] = 1
		}
	}
	// The pipeline is cheap scaffolding — the FM-indexes are shared and
	// the devices belong to the job for its lifetime; only the tracer
	// hookup is per job.
	p, err := NewPipeline(s.file, devs, cfg)
	if err != nil {
		return err
	}
	opt := mapper.Options{
		MaxErrors: s.cfg.MaxErrors, MaxLocations: s.cfg.MaxLocations,
		Prefilter: job.Prefilter,
	}
	run := Stream{
		Pipeline: p, Genome: s.g, Opt: opt, Cigar: job.Cigar, Batch: job.Batch,
		ReadsPath: s.store.readsPath(job.ID), ReadsName: job.ID + "/reads.fq",
		SAMPath: s.store.samPath(job.ID), CkptPath: s.store.ckptPath(job.ID),
		Fingerprint: checkpoint.FingerprintDigest(s.digest, opt,
			fmt.Sprintf("batch=%d", job.Batch),
			fmt.Sprintf("cigar=%t", job.Cigar),
			fmt.Sprintf("devices=%d", job.Devices),
			"faults="+job.Faults,
		),
	}
	if _, serr := os.Stat(run.CkptPath); serr == nil {
		run.Resume = true
		s.reg.Counter(metricJobsResumed).Add(1)
	}

	// Per-job chaos: arm the job's fault plan with fresh ordinals
	// (RunStream seats the checkpointed ones on resume) on the job's own
	// partition only — a device=K directive narrows it further to the Kth
	// partition member, which is how a chaos run loses one device while
	// its partition partners stay healthy. Always disarm afterwards: an
	// injected fault plan must never outlive the job that carried it.
	// (The breaker state a plan tripped intentionally does outlive it;
	// readmission goes through the allocator's half-open canary.)
	defer func() {
		for _, d := range devs {
			d.InstallFaults(nil)
		}
	}()
	if job.Faults != "" {
		plan, err := cl.ParseFaultPlan(job.Faults)
		if err == nil {
			err = cl.ArmFaults(plan, devs)
		}
		if err != nil {
			return fmt.Errorf("%w: %w", errBadInput, err)
		}
	}

	ctx := context.Background()
	if job.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(job.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	run.AfterBatch = func(st *checkpoint.State) error {
		// Progress only: the job stays running, so this writes nothing —
		// the batch's run.ckpt is its durable copy.
		s.store.update(job.ID, func(j *Job) { //nolint:errcheck
			j.Reads = st.Reads
			j.Mapped = st.Mapped
			j.Locations = st.Locations
			j.SimSeconds = st.SimSeconds
			j.Resumable = true
		})
		if s.cfg.StepDelay > 0 {
			time.Sleep(s.cfg.StepDelay)
		}
		if s.draining.Load() {
			return core.Stop
		}
		return nil
	}
	_, err = RunStream(ctx, run)
	var pe *fastx.ParseError
	if errors.As(err, &pe) {
		return fmt.Errorf("%w: %w", errBadInput, err)
	}
	return err
}
