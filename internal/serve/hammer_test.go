package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestServeSubmitDispatchHammer is the regression test for the
// submit/dispatch race. Four clients each submit a tiny job, wait for
// it, and submit the next, so nearly every admission finds the queue
// empty and devices free; a goroutine keeps waking the dispatcher, so it
// is already looking when the job is admitted. Before jobs were enqueued
// only after spooling, the dispatcher could then dequeue a job whose
// directory did not exist yet: two job.json writers shared one .tmp (a
// 500 on submit), the handler's write put "queued" over "running", the
// attempt found no reads.fq, and the handler's error path deleted a
// running job. The test wants every submit accepted, every job done,
// and every job.json on disk saying so. CI runs it under -race.
func TestServeSubmitDispatchHammer(t *testing.T) {
	const clients, perClient = 4, 130
	fx := newFixture(t, 20_000, 2)
	spool := t.TempDir()
	s, ts := newServer(t, fx, spool, func(c *Config) {
		c.Devices = threeDevicePool()
		c.MaxConcurrent = 3
	})

	stopWaking := make(chan struct{})
	var waker sync.WaitGroup
	waker.Add(1)
	go func() {
		defer waker.Done()
		for {
			select {
			case <-stopWaking:
				return
			default:
				s.wakeUp()
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := postJob(ts.URL, fx.fastq, "", nil)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				var j Job
				err = json.NewDecoder(resp.Body).Decode(&j)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted || err != nil {
					t.Errorf("submit: status %d (decode: %v)", resp.StatusCode, err)
					return
				}
				id, deadline := j.ID, time.Now().Add(30*time.Second)
				for !terminal(j.State) {
					if time.Now().After(deadline) {
						t.Errorf("%s stuck in %q", id, j.State)
						return
					}
					time.Sleep(time.Millisecond)
					j, _ = s.store.get(id)
				}
			}
		}()
	}
	wg.Wait()
	close(stopWaking)
	waker.Wait()
	s.Drain() // no job.json write is in flight after this

	jobs := s.store.snapshotJobs()
	if len(jobs) != clients*perClient {
		t.Errorf("store holds %d jobs, %d were submitted", len(jobs), clients*perClient)
	}
	for _, j := range jobs {
		if j.State != StateDone {
			t.Errorf("%s ended %q (error %+v)", j.ID, j.State, j.Error)
		}
		b, err := os.ReadFile(filepath.Join(spool, j.ID, "job.json"))
		if err != nil {
			t.Errorf("%s: %v", j.ID, err)
			continue
		}
		var disk Job
		if err := json.Unmarshal(b, &disk); err != nil || disk.State != StateDone {
			t.Errorf("%s: job.json says %q (err %v), the store says done", j.ID, disk.State, err)
		}
	}
}
