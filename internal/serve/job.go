package serve

// Job model and the on-disk job store. Every job owns one spool
// directory (reads.fq upload, out.sam output, run.ckpt checkpoint,
// trace.json of the latest finished attempt, job.json metadata). Each
// fact about a job is durable in one place: job.json is replaced only
// when the job's state changes, and its progress lives in run.ckpt,
// which the stream runner saves at every batch boundary. A killed
// server restarted over the same spool re-queues the unfinished jobs in
// admission order with their progress read back from run.ckpt
// (DESIGN.md §14).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/cl"
	"repro/internal/durable"
	"repro/internal/trace"
)

// JobState is a job's position in its lifecycle. The machine is
// queued → running → {done, failed, interrupted}; interrupted (drain)
// and stale running (crash) re-enter queued on restart.
type JobState string

const (
	StateQueued      JobState = "queued"
	StateRunning     JobState = "running"
	StateDone        JobState = "done"
	StateFailed      JobState = "failed"
	StateInterrupted JobState = "interrupted"
)

// JobError is the typed, machine-readable failure state of a failed
// job, reusing the cl error taxonomy so clients can distinguish a
// transient resource squeeze from a lost device from bad input.
type JobError struct {
	// Kind classifies the failure: "cl" (device/runtime, Code set),
	// "deadline" (per-job deadline exceeded), "input" (unparseable
	// reads), "internal" (anything else).
	Kind string `json:"kind"`
	// Code is the OpenCL-style error code name (e.g.
	// "CL_DEVICE_NOT_AVAILABLE") when Kind is "cl".
	Code string `json:"code,omitempty"`
	// Transient and DeviceLost mirror cl.IsTransient / cl.IsDeviceLost
	// for the underlying error.
	Transient  bool   `json:"transient,omitempty"`
	DeviceLost bool   `json:"device_lost,omitempty"`
	Message    string `json:"message"`
}

// classifyError builds the typed error state for a job failure.
func classifyError(kind string, err error) *JobError {
	je := &JobError{Kind: kind, Message: err.Error()}
	if code := cl.CodeOf(err); code != cl.Success {
		je.Kind = "cl"
		je.Code = code.String()
		je.Transient = cl.IsTransient(err)
		je.DeviceLost = cl.IsDeviceLost(err)
	}
	return je
}

// Job is one mapping job. The store hands out copies; only the store
// mutates the canonical instances, under its mutex.
type Job struct {
	ID  string `json:"id"`
	Seq int    `json:"seq"` // admission order, the FIFO key
	// State and Error are the lifecycle position and, for failed jobs,
	// the typed cause.
	State JobState  `json:"state"`
	Error *JobError `json:"error,omitempty"`
	// Request parameters.
	Batch      int    `json:"batch"`
	Cigar      bool   `json:"cigar,omitempty"`
	Prefilter  string `json:"prefilter,omitempty"`   // pre-alignment filter ("" = off)
	Faults     string `json:"faults,omitempty"`      // X-Repute-Faults plan text
	DeadlineMS int64  `json:"deadline_ms,omitempty"` // 0 = none
	Bytes      int64  `json:"bytes"`                 // spooled upload size
	// Devices is the partition size the job requested (?devices=K,
	// default 1); Partition records which pool devices the latest attempt
	// actually ran on.
	Devices   int      `json:"devices,omitempty"`
	Partition []string `json:"partition,omitempty"`
	// Attempts counts runs started (1 on the first run); a job may
	// retry until attempts exceeds the server's retry budget.
	Attempts int `json:"attempts,omitempty"`
	// Progress and result tallies (from the job's checkpoint state).
	Reads      int     `json:"reads,omitempty"`
	Mapped     int     `json:"mapped,omitempty"`
	Locations  int     `json:"locations,omitempty"`
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	// Resumable marks interrupted jobs whose checkpoint allows a
	// bit-identical continuation after restart.
	Resumable bool `json:"resumable,omitempty"`
}

// valid reports whether a job loaded from spool directory dir is one the
// store can have written: named for its directory and its admission
// sequence, in one of the five states, with no negative upload size,
// batch or tally. A negative size would shrink the in-flight byte budget
// and let admission exceed MaxInflightBytes.
func (j *Job) valid(dir string) bool {
	known := j.State == StateQueued || j.State == StateRunning || terminal(j.State)
	tallies := j.Reads >= 0 && j.Mapped >= 0 && j.Locations >= 0 && j.SimSeconds >= 0
	return known && tallies && j.ID == dir && j.ID == jobID(j.Seq) && j.Bytes >= 0 && j.Batch >= 0
}

// jobID names the job admitted with sequence number seq.
func jobID(seq int) string { return fmt.Sprintf("job-%06d", seq) }

// store is the shared job table. All fields are mutated only under mu;
// methods return Job copies so handlers never alias store-owned state.
type store struct {
	dir string // spool root; immutable after newStore

	mu            sync.Mutex
	jobs          map[string]*Job // guarded by mu
	queue         []string        // guarded by mu; FIFO of queued job IDs
	reserved      int             // guarded by mu; jobs admitted and still spooling, not yet in jobs or queue
	inflightBytes int64           // guarded by mu; upload bytes admitted but not yet terminal
	nextSeq       int             // guarded by mu
}

// terminal reports whether a state ends a job's claim on the in-flight
// byte budget. Interrupted counts as terminal for accounting because it
// only occurs during drain (the process is about to exit; a restart
// recounts from the spool).
func terminal(st JobState) bool {
	return st == StateDone || st == StateFailed || st == StateInterrupted
}

// uploadPrefix starts the name of an upload's temp file in the spool
// root, where it waits for admission before it becomes a job's reads.fq.
const uploadPrefix = ".upload-"

// jobDir is the job's spool directory; readsPath, samPath and ckptPath
// are the fixed artifact names inside it.
func (s *store) jobDir(id string) string    { return filepath.Join(s.dir, id) }
func (s *store) readsPath(id string) string { return filepath.Join(s.dir, id, "reads.fq") }
func (s *store) samPath(id string) string   { return filepath.Join(s.dir, id, "out.sam") }
func (s *store) ckptPath(id string) string  { return filepath.Join(s.dir, id, "run.ckpt") }
func (s *store) tracePath(id string) string { return filepath.Join(s.dir, id, "trace.json") }

// newStore opens (or creates) the spool directory and loads every
// persisted job. Jobs that were queued, running or interrupted when the
// previous process died are re-queued in admission order, with their
// progress restored from run.ckpt — they resume from that checkpoint —
// unless a job asks for a larger partition than the pool's devices: no
// acquire could ever satisfy it, so it fails with an input error instead
// of stalling every job queued behind it. That failure is the one write
// a restart makes: a re-queued job's job.json stays as it is, because a
// second restart reads the same state from it.
func newStore(dir string, devices int) (*store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: spool: %w", err)
	}
	s := &store{dir: dir, jobs: map[string]*Job{}}
	// The store is still single-owner here, but taking the lock anyway
	// keeps the guarded-field discipline uniform.
	s.mu.Lock()
	defer s.mu.Unlock()
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: spool: %w", err)
	}
	var resumed []*Job
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), uploadPrefix) {
			// An upload the previous process died spooling: no job owns it.
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("serve: spool: %w", err)
			}
			continue
		}
		if !e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name(), "job.json"))
		var seq int
		if _, serr := fmt.Sscanf(e.Name(), "job-%d", &seq); serr == nil && jobID(seq) == e.Name() &&
			errors.Is(err, fs.ErrNotExist) {
			// A crash between the submit handler's MkdirAll and the first
			// persist: no 202 named this job, so nothing can ask for it.
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("serve: spool: %w", err)
			}
			continue
		}
		if err != nil {
			continue // not a job directory, or its job.json cannot be read
		}
		j := &Job{}
		if err := json.Unmarshal(b, j); err != nil || !j.valid(e.Name()) {
			continue // corrupt: the store never writes such a job.json
		}
		if j.Devices < 1 {
			j.Devices = 1 // spool entries written before partitions existed; fixed at every start
		}
		s.jobs[j.ID] = j
		if j.Seq >= s.nextSeq {
			s.nextSeq = j.Seq + 1
		}
		switch j.State {
		case StateQueued, StateRunning, StateInterrupted:
			if j.Devices > devices {
				j.State = StateFailed
				j.Error = &JobError{Kind: "input", Message: fmt.Sprintf(
					"job asks for %d devices, the pool has %d", j.Devices, devices)}
				if err := s.persist(j); err != nil {
					return nil, err
				}
				continue
			}
			j.State = StateQueued
			s.restoreProgress(j)
			resumed = append(resumed, j)
		}
	}
	sort.Slice(resumed, func(i, k int) bool { return resumed[i].Seq < resumed[k].Seq })
	for _, j := range resumed {
		s.queue = append(s.queue, j.ID)
		s.inflightBytes += j.Bytes
	}
	return s, nil
}

// restoreProgress copies an unfinished job's progress from its run.ckpt
// when one loads. job.json holds the tallies only as of the job's last
// state change; the checkpoint holds them as of the last batch the job
// made durable, which is where the job resumes.
func (s *store) restoreProgress(j *Job) {
	st, err := checkpoint.Load(s.ckptPath(j.ID))
	if err != nil {
		return // no batch is durable yet, or the resume will report the file
	}
	j.Reads, j.Mapped, j.Locations, j.SimSeconds = st.Reads, st.Mapped, st.Locations, st.SimSeconds
	j.Resumable = true
}

// persist replaces a job's job.json through durable.WriteFile. Callers
// hold s.mu: every writer of one job shares the one job.json.tmp, and
// the lock is what makes the file's history follow the job's state
// machine.
func (s *store) persist(j *Job) error {
	err := durable.WriteFile(filepath.Join(s.jobDir(j.ID), "job.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(j)
	})
	if err != nil {
		return fmt.Errorf("serve: job %s: %w", j.ID, err)
	}
	return nil
}

// writeTrace replaces a job's trace.json with rec's Chrome trace. Only the
// worker running the job's attempt writes it, so it needs no lock.
func (s *store) writeTrace(id string, rec *trace.Recorder) error {
	err := durable.WriteFile(s.tracePath(id), func(w io.Writer) error {
		return trace.WriteChromeTrace(w, rec)
	})
	if err != nil {
		return fmt.Errorf("serve: job %s: trace: %w", id, err)
	}
	return nil
}

// depth reports how many jobs hold a queue slot (queued, or admitted
// and still spooling) and the in-flight upload bytes.
func (s *store) depth() (n int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) + s.reserved, s.inflightBytes
}

// admit is the first half of admission: if the queue has room it
// reserves an id, a queue slot and size bytes of the in-flight budget,
// returning the job copy and true, or the current depth and false when
// admission control rejects it. The job is not in the table yet — no
// status request, peek or dequeue can see it — so the caller is free to
// create its spool directory and move the upload in, and then hands it
// to enqueue, or to release if spooling failed.
func (s *store) admit(template Job, size int64, maxQueue int, maxBytes int64) (Job, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	depth := len(s.queue) + s.reserved
	if depth >= maxQueue || s.inflightBytes+size > maxBytes {
		return Job{}, depth, false
	}
	j := template
	j.Seq = s.nextSeq
	s.nextSeq++
	j.ID = jobID(j.Seq)
	j.State = StateQueued
	j.Bytes = size
	s.reserved++
	s.inflightBytes += size
	return j, depth + 1, true
}

// enqueue is the second half: with the job's directory and reads.fq in
// place it writes the first job.json and only then makes the job
// visible to the dispatcher, so nothing can run, re-persist or fail a
// job whose spool entry is still being built. On error the reservation
// is released and the job was never visible.
func (s *store) enqueue(j Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reserved--
	if err := s.persist(&j); err != nil {
		s.inflightBytes -= j.Bytes
		return err
	}
	s.jobs[j.ID] = &j
	s.queue = append(s.queue, j.ID)
	return nil
}

// release returns the slot and bytes of an admitted job whose spooling
// failed before enqueue.
func (s *store) release(j Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reserved--
	s.inflightBytes -= j.Bytes
}

// get returns a copy of the job.
func (s *store) get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// peek returns a copy of the oldest queued job without dequeuing it, so
// the scheduler can try to allocate its partition first. ok is false
// when the queue is empty.
func (s *store) peek() (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return Job{}, false
	}
	return *s.jobs[s.queue[0]], true
}

// dequeue pops the oldest queued job and marks it running on the pool
// devices named by partition, counting the attempt. ok is false when the
// queue is empty.
func (s *store) dequeue(partition []string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return Job{}, false
	}
	id := s.queue[0]
	s.queue = s.queue[1:]
	j := s.jobs[id]
	j.State = StateRunning
	j.Partition = partition
	j.Attempts++
	cp := *j
	// A restart re-queues a running job as it does a queued one, so losing
	// this write loses only the attempt count and partition it adds: the
	// job resumes from its checkpoint either way, with one more attempt
	// of retry budget.
	s.persist(&cp) //nolint:errcheck
	return cp, true
}

// requeue puts a running job back at the tail of the queue (retry after
// a failed attempt). It writes nothing: a restart re-queues a running
// job too, and dequeue has already made its attempt count durable.
func (s *store) requeue(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		j.State = StateQueued
		s.queue = append(s.queue, id)
	}
}

// update applies fn to the job under the store lock, returning the
// updated copy, and persists the result when fn changed the job's state.
// A change that keeps the state — a batch's progress — stays in memory:
// run.ckpt already holds it durably, and a restart restores it from
// there (restoreProgress).
func (s *store) update(id string, fn func(*Job)) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("serve: update: no job %s", id)
	}
	was := j.State
	fn(j)
	if !terminal(was) && terminal(j.State) {
		s.inflightBytes -= j.Bytes
	}
	cp := *j
	if j.State == was {
		return cp, nil
	}
	return cp, s.persist(&cp)
}

// snapshotJobs returns copies of all jobs sorted by admission order.
func (s *store) snapshotJobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	return out
}
