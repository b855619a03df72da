package main

// serve-jobs: a closed loop of client goroutines against an in-process
// serve.Server behind httptest. Callers of a mapping service wait for
// their reply before sending the next job, hence closed loop; the client
// count is the machine's CPU count, at most the 2 the workload names.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/eval"
	"repro/internal/mapper"
)

const pollEvery = 5 * time.Millisecond

// jobRun is one job's client-side record.
type jobRun struct {
	index int // which upload
	id    string
	// start, accepted, running, done and fetched are the client-side
	// phase boundaries: submit sent, 202 received, first poll that saw
	// the job running (or already done), first poll that saw it done, SAM
	// body read.
	start, accepted, running, done, fetched time.Time
	polls                                   int
	refused                                 bool // 429 from admission control
	simSeconds                              float64
	sam                                     []byte
	err                                     error
}

// upload is one job's multipart request body.
type upload struct {
	body        []byte
	contentType string
	fastq       []byte
}

func newUpload(fastq []byte) (upload, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("reads", "reads.fq")
	if err != nil {
		return upload{}, err
	}
	if _, err := fw.Write(fastq); err != nil {
		return upload{}, err
	}
	if err := mw.Close(); err != nil {
		return upload{}, err
	}
	return upload{body: buf.Bytes(), contentType: mw.FormDataContentType(), fastq: fastq}, nil
}

// runJob submits one upload, polls it to completion and fetches its SAM.
func runJob(client *http.Client, url string, index int, up upload) jobRun {
	j := jobRun{index: index, start: time.Now()}
	resp, err := client.Post(url+"/jobs", up.contentType, bytes.NewReader(up.body))
	if err != nil {
		j.err = err
		return j
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.accepted = time.Now()
	switch {
	case err != nil:
		j.err = err
		return j
	case resp.StatusCode == http.StatusTooManyRequests:
		j.refused = true
		j.err = fmt.Errorf("submit refused: 429")
		return j
	case resp.StatusCode != http.StatusAccepted:
		j.err = fmt.Errorf("submit: %d: %s", resp.StatusCode, body)
		return j
	}
	var status struct {
		ID         string          `json:"id"`
		State      string          `json:"state"`
		Error      json.RawMessage `json:"error"`
		SimSeconds float64         `json:"sim_seconds"`
	}
	if j.err = json.Unmarshal(body, &status); j.err != nil {
		return j
	}
	j.id = status.ID
	for {
		resp, err := client.Get(url + "/jobs/" + j.id)
		if err != nil {
			j.err = err
			return j
		}
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			j.err = err
			return j
		}
		j.polls++
		now := time.Now()
		if j.running.IsZero() && status.State != "queued" {
			j.running = now
		}
		if status.State == "done" {
			j.done = now
			break
		}
		if status.State == "failed" || status.State == "interrupted" {
			j.err = fmt.Errorf("job %s %s: %s", j.id, status.State, status.Error)
			return j
		}
		time.Sleep(pollEvery)
	}
	j.simSeconds = status.SimSeconds
	resp, err = client.Get(url + "/jobs/" + j.id + "/sam")
	if err != nil {
		j.err = err
		return j
	}
	j.sam, j.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if j.err == nil && resp.StatusCode != http.StatusOK {
		j.err = fmt.Errorf("fetch SAM: %d", resp.StatusCode)
	}
	j.fetched = time.Now()
	return j
}

// serveClients is the closed loop's client count: one per pool device,
// but never more client goroutines than the machine has CPUs.
func serveClients(w *workload) int {
	return min(w.devices, runtime.NumCPU())
}

// runJobs drives the closed loop: each client takes the next upload as
// soon as its previous job's SAM is in hand, until the phase ends.
func runJobs(w *workload, t *target, uploads []upload, ph phase) []jobRun {
	var (
		next atomic.Int64
		mu   sync.Mutex
		runs []jobRun
		wg   sync.WaitGroup
	)
	for c := 0; c < serveClients(w); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if !ph.more(i) {
					return
				}
				j := runJob(t.ts.Client(), t.ts.URL, i%len(uploads), uploads[i%len(uploads)])
				mu.Lock()
				runs = append(runs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Upload order, not completion order: float sums over the jobs must
	// not depend on which client finished first.
	sort.SliceStable(runs, func(a, b int) bool { return runs[a].index < runs[b].index })
	return runs
}

// makeUploads cuts the read set into one FASTQ upload per job.
func makeUploads(rs *readSet, jobReads, n int) ([]upload, error) {
	uploads := make([]upload, n)
	for k := range uploads {
		var err error
		if uploads[k], err = newUpload(fastqOf(rs.reads, k*jobReads, (k+1)*jobReads)); err != nil {
			return nil, err
		}
	}
	return uploads, nil
}

// warmupJob runs one untimed job on reads no measured job uses.
func warmupJob(t *target, rs *readSet) error {
	up, err := newUpload(fastqOf(rs.warmup, 0, len(rs.warmup)))
	if err != nil {
		return err
	}
	if j := runJob(t.ts.Client(), t.ts.URL, -1, up); j.err != nil {
		return fmt.Errorf("warm-up job: %w", j.err)
	}
	return nil
}

// jobFASTQ is where streamJob puts the upload it maps.
func (e *env) jobFASTQ() string { return filepath.Join(e.dir, "job.fq") }

// streamJob maps one upload through the in-process stream loop.
func (e *env) streamJob(w *workload, t *target, up upload, rec *recorder) ([]byte, *streamStats, error) {
	if err := os.WriteFile(e.jobFASTQ(), up.fastq, 0o644); err != nil {
		return nil, nil, err
	}
	return e.streamReference(w, t, e.jobFASTQ(), w.batch, rec)
}

// checkJobs counts failed jobs and compares the first two jobs' SAM
// with the in-process stream loop's on the same upload.
func (e *env) checkJobs(w *workload, t *target, uploads []upload, runs []jobRun, res *workloadResult) error {
	checked := 0
	for _, j := range runs {
		res.Attempted++
		if j.err != nil {
			res.fail(1, "job %d: %v", j.index, j.err)
			continue
		}
		if j.index >= 2 || checked >= 2 {
			continue
		}
		checked++
		want, _, err := e.streamJob(w, t, uploads[j.index], nil)
		if err != nil {
			return fmt.Errorf("reference stream loop: %w", err)
		}
		if !bytes.Equal(j.sam, want) {
			res.fail(1, "job %d: SAM differs from the in-process stream loop's (%d vs %d bytes)", j.index, len(j.sam), len(want))
		}
	}
	return nil
}

func (e *env) runServeUntraced(w *workload, t *target, rs *readSet, res *workloadResult) error {
	jobReads := w.batch
	uploads, err := makeUploads(rs, jobReads, len(rs.reads)/jobReads)
	if err != nil {
		return err
	}
	if err := warmupJob(t, rs); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph := e.newPhase(e.scale.reads[w.name] / jobReads)
	runs := runJobs(w, t, uploads, ph)
	res.WallS = time.Since(ph.start).Seconds()
	runtime.ReadMemStats(&m1)
	if err := e.checkJobs(w, t, uploads, runs, res); err != nil {
		return err
	}

	// Simulated totals come from what the service exported: sim_seconds
	// in the job status, energy in the job's spooled checkpoint.
	var lat []float64
	var simS, energyJ float64
	var mappings [][]mapper.Mapping
	var origins []eval.Origin
	seen := map[int]bool{}
	for _, j := range runs {
		if j.err != nil {
			continue
		}
		lat = append(lat, ms(j.fetched.Sub(j.start)))
		res.Reads += jobReads
		st, err := checkpoint.Load(filepath.Join(t.spool, j.id, "run.ckpt"))
		if err != nil {
			return err
		}
		simS += j.simSeconds
		energyJ += st.EnergyJ
		if seen[j.index] {
			continue // a re-sent upload of an exhausted read set
		}
		seen[j.index] = true
		lo := j.index * jobReads
		got := make([][]mapper.Mapping, jobReads)
		if err := mappingsFromSAM(got, lo, j.sam); err != nil {
			return err
		}
		mappings = append(mappings, got...)
		origins = append(origins, rs.origins[lo:lo+jobReads]...)
	}
	res.setLatencies(lat)
	res.setSim(simS, energyJ, res.Reads)
	if res.Reads > 0 {
		res.EndToEnd["reads_per_s"] = float64(res.Reads) / res.WallS
		// Server and client share this process, so the figure includes
		// the client's own request and response buffers.
		res.EndToEnd["alloc_bytes_per_read"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.Reads)
		res.EndToEnd["sensitivity"] = eval.Sensitivity(mappings, origins, w.opt.MaxErrors, int32(w.opt.MaxErrors))
	}
	return nil
}
