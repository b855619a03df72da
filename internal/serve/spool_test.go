package serve

// The spool's two decoders of untrusted bytes: job.json and run.ckpt
// recovery at restart (newStore) and the multipart submit handler. Both
// fuzz targets hold the store to what the server itself could have
// written, the restart test to what each write a job makes leaves for a
// restart to read, and the sweep test to what a server killed
// mid-upload leaves behind.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cl"
)

// TestNewSweepsStaleUploads: an upload temp file left in the spool root
// by a server killed while spooling belongs to no job, and neither does a
// job directory a crash left before its first job.json; a restart removes
// both and keeps everything else — a corrupt job.json included.
func TestNewSweepsStaleUploads(t *testing.T) {
	fx := newFixture(t, 20_000, 2)
	spool := t.TempDir()
	stale := filepath.Join(spool, uploadPrefix+"x")
	if err := os.WriteFile(stale, fx.fastq, 0o600); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(spool, "job-000007")
	corrupt := filepath.Join(spool, "job-000008")
	for _, dir := range []string{orphan, corrupt, filepath.Join(spool, "notes")} {
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(corrupt, "job.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(spool, "notes.txt")
	if err := os.WriteFile(other, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := newServer(t, fx, spool, nil)
	defer s.Drain()
	for _, gone := range []string{stale, orphan} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("%s survived the restart: %v", filepath.Base(gone), err)
		}
	}
	for _, kept := range []string{other, filepath.Join(corrupt, "job.json"), filepath.Join(spool, "notes")} {
		if _, err := os.Stat(kept); err != nil {
			t.Errorf("the sweep removed %s, which is not a stale upload or an orphaned job: %v", kept, err)
		}
	}
}

// writeJob leaves j's job.json in spool dir as the store's persist
// writes it, with a checkpoint holding st beside it when st is not nil.
func writeJob(t testing.TB, dir string, j Job, st *checkpoint.State) {
	t.Helper()
	s := &store{dir: dir}
	if err := os.MkdirAll(s.jobDir(j.ID), 0o755); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	err := s.persist(&j)
	s.mu.Unlock()
	if err == nil && st != nil {
		err = checkpoint.Save(s.ckptPath(j.ID), st)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestartReadsEachWrite leaves on disk the job.json each transition
// of an unfinished job writes — enqueue's queued, dequeue's running with
// its partition and attempt count, drain's interrupted — with and without
// a run.ckpt beside it, and opens the spool twice. Each restart must
// re-queue the job with job.json's attempts and partition, the progress
// of run.ckpt when there is one and of job.json otherwise, and write
// nothing: job.json stays the same file, byte for byte.
func TestRestartReadsEachWrite(t *testing.T) {
	const id = "job-000001"
	ckpt := &checkpoint.State{Version: checkpoint.Version, Fingerprint: "f", BatchSize: 4, Batches: 3,
		Reads: 12, Offset: 1200, Line: 49, SAMBytes: 2400, Mapped: 11, Locations: 15, SimSeconds: 0.375}
	partition := []string{"cpu0", "gpu0"}
	for _, tc := range []struct {
		name string
		job  Job
	}{
		{"queued", Job{ID: id, Seq: 1, State: StateQueued, Batch: 4, Bytes: 1600, Devices: 2}},
		// A retry's dequeue carries the tallies of the attempt before it.
		{"running", Job{ID: id, Seq: 1, State: StateRunning, Batch: 4, Bytes: 1600, Devices: 2,
			Partition: partition, Attempts: 2, Reads: 4, Mapped: 4, Locations: 5, SimSeconds: 0.125, Resumable: true}},
		{"interrupted", Job{ID: id, Seq: 1, State: StateInterrupted, Batch: 4, Bytes: 1600, Devices: 2,
			Partition: partition, Attempts: 1, Reads: 8, Mapped: 7, Locations: 10, SimSeconds: 0.25, Resumable: true}},
	} {
		for _, withCkpt := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ckpt=%t", tc.name, withCkpt), func(t *testing.T) {
				dir := t.TempDir()
				want := tc.job
				want.State = StateQueued
				var st *checkpoint.State
				if withCkpt {
					st = ckpt
					want.Reads, want.Mapped, want.Locations, want.SimSeconds = st.Reads, st.Mapped, st.Locations, st.SimSeconds
					want.Resumable = true
				}
				writeJob(t, dir, tc.job, st)
				path := filepath.Join(dir, id, "job.json")
				written, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				bytesWritten, _ := os.ReadFile(path)
				for restart := 1; restart <= 2; restart++ {
					s, err := newStore(dir, 2)
					if err != nil {
						t.Fatal(err)
					}
					if got, _ := s.get(id); !reflect.DeepEqual(got, want) {
						t.Errorf("restart %d: job\n%+v\nwant\n%+v", restart, got, want)
					}
					if n, inflight := s.depth(); n != 1 || inflight != want.Bytes {
						t.Errorf("restart %d: depth %d, in-flight %d bytes, want 1 and %d", restart, n, inflight, want.Bytes)
					}
					now, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					if b, _ := os.ReadFile(path); !os.SameFile(written, now) || !bytes.Equal(b, bytesWritten) {
						t.Errorf("restart %d rewrote job.json", restart)
					}
				}
			})
		}
	}
}

// FuzzSpoolRecover writes arbitrary bytes as a job's job.json, and as the
// run.ckpt beside it when they are not empty, and opens the spool.
// Recovery must not panic, and every job it loads must be one the store
// can have written: one of the five states, no negative size, batch or
// tally, at least one device, and the ID of its directory — with the
// in-flight byte budget it recounts never negative. A job it re-queues
// reports the progress of the checkpoint when one loads.
func FuzzSpoolRecover(f *testing.F) {
	const id = "job-000003"
	seedDir := f.TempDir()
	ckpt, err := json.Marshal(&checkpoint.State{Version: checkpoint.Version, Fingerprint: "f", BatchSize: 32,
		Batches: 3, Reads: 96, Offset: 9000, Line: 385, SAMBytes: 12000, Mapped: 90, Locations: 101, SimSeconds: 0.375})
	if err != nil {
		f.Fatal(err)
	}
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateInterrupted} {
		j := Job{ID: id, Seq: 3, State: st, Batch: 32, Bytes: 2048, Devices: 2,
			Partition: []string{"cpu0", "gpu0"}, Attempts: 1, Reads: 64, Mapped: 60,
			Locations: 71, SimSeconds: 0.25, Resumable: st == StateInterrupted}
		if st == StateFailed {
			j.Error = &JobError{Kind: "cl", Code: "CL_DEVICE_NOT_AVAILABLE", DeviceLost: true, Message: "device lost"}
		}
		writeJob(f, seedDir, j, nil)
		b, err := os.ReadFile(filepath.Join(seedDir, id, "job.json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, []byte(nil))
		f.Add(b, ckpt)
	}
	f.Add([]byte(`{"id":"job-000003","seq":3,"state":"queued","bytes":-4096,"devices":1}`), []byte(nil))
	f.Add([]byte(`{"id":"job-000003","seq":3,"state":"queued","reads":-5,"devices":1}`), []byte(nil))
	f.Add([]byte(`{"id":"job-000003","seq":3,"state":"paused"}`), []byte(nil))
	running := []byte(`{"id":"job-000003","seq":3,"state":"running","batch":32,"devices":1,"attempts":1}`)
	f.Add(running, []byte(`{"version":1,"reads":-5,"sim_seconds":0.5}`))
	f.Add(running, []byte(`{"version":1,"reads":5,"sim_seconds":-0.5}`))
	f.Add(running, []byte(`{"version":1,"reads":5`))

	f.Fuzz(func(t *testing.T, b, ckpt []byte) {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id, "job.json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(ckpt) > 0 {
			if err := os.WriteFile(filepath.Join(dir, id, "run.ckpt"), ckpt, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := newStore(dir, 2)
		if err != nil {
			t.Fatalf("newStore: %v", err)
		}
		for name, j := range s.jobs {
			switch j.State {
			case StateQueued, StateRunning, StateDone, StateFailed, StateInterrupted:
			default:
				t.Errorf("loaded job in state %q", j.State)
			}
			if j.Bytes < 0 || j.Batch < 0 || j.Devices < 1 || j.ID != name || name != id {
				t.Errorf("loaded job %q from %s: bytes %d, batch %d, devices %d", j.ID, id, j.Bytes, j.Batch, j.Devices)
			}
			if j.Reads < 0 || j.Mapped < 0 || j.Locations < 0 || j.SimSeconds < 0 {
				t.Errorf("loaded job with a negative tally: %+v", j)
			}
			if st, err := checkpoint.Load(s.ckptPath(id)); err == nil && j.State == StateQueued &&
				(j.Reads != st.Reads || j.Mapped != st.Mapped || j.Locations != st.Locations || j.SimSeconds != st.SimSeconds || !j.Resumable) {
				t.Errorf("re-queued job %+v does not report its checkpoint's progress %+v", j, st)
			}
		}
		if n, inflight := s.depth(); n < 0 || inflight < 0 {
			t.Errorf("recovered depth %d, in-flight bytes %d", n, inflight)
		}
	})
}

// FuzzSubmit drives POST /jobs with arbitrary query strings, content
// types and bodies. The handler must not panic or answer 5xx (no spool
// write can fail here, and the server is not draining), and every
// request it does not accept must leave the spool as it found it — no
// upload temp file, no job directory — and the queue depth and
// in-flight bytes at zero.
func FuzzSubmit(f *testing.F) {
	fx := newFixture(f, 20_000, 2)
	// upload is the multipart body of a reads field holding n copies of
	// the fixture's FASTQ, and its content type.
	upload := func(n int) ([]byte, string) {
		var body bytes.Buffer
		mw := multipart.NewWriter(&body)
		fw, err := mw.CreateFormFile("reads", "reads.fq")
		if err != nil {
			f.Fatal(err)
		}
		fw.Write(bytes.Repeat(fx.fastq, n))
		mw.Close()
		return body.Bytes(), mw.FormDataContentType()
	}
	one, form := upload(1)
	f.Add("", form, one)
	f.Add("batch=2&cigar=true&prefilter=gatekeeper", form, one)
	f.Add("devices=2", form, one)
	f.Add("batch=-1", form, one)
	f.Add("", form, one[:len(one)/2])
	f.Add("", "text/plain", fx.fastq)
	over, form := upload(5 << 10 / len(fx.fastq)) // over the in-flight budget: 429
	f.Add("", form, over)
	huge, form := upload(10 << 10 / len(fx.fastq)) // over the upload cap: 413
	f.Add("", form, huge)

	f.Fuzz(func(t *testing.T, query, contentType string, b []byte) {
		spool := t.TempDir()
		s, err := New(Config{Index: fx.file, Devices: []*cl.Device{cl.SystemOneCPU()}, Spool: spool,
			MaxUploadBytes: 8 << 10, MaxInflightBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Drain()
		req, err := http.NewRequest("POST", "http://repute/jobs", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		req.URL.RawQuery = query
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if req.MultipartForm != nil {
			req.MultipartForm.RemoveAll()
		}

		if rec.Code >= 500 {
			t.Fatalf("POST /jobs?%s = %d: %s", query, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusAccepted {
			var j Job
			if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
				t.Fatalf("202 body: %v", err)
			}
			for _, p := range []string{s.store.readsPath(j.ID), filepath.Join(s.store.jobDir(j.ID), "job.json")} {
				if _, err := os.Stat(p); err != nil {
					t.Errorf("accepted job's spool entry incomplete: %v", err)
				}
			}
			return
		}
		ents, err := os.ReadDir(spool)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() || strings.HasPrefix(e.Name(), uploadPrefix) {
				t.Errorf("rejected submit (%d) left %s in the spool", rec.Code, e.Name())
			}
		}
		if n, inflight := s.store.depth(); n != 0 || inflight != 0 {
			t.Errorf("rejected submit (%d) left depth %d, in-flight bytes %d", rec.Code, n, inflight)
		}
	})
}
