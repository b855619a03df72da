package core

// The equivalence harness (DESIGN.md §15): configurations covering every
// pair of axis values, each held to four properties against a reference
// run and a brute-force DP oracle.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/allpairs"
	"repro/internal/cl"
	"repro/internal/dna"
	"repro/internal/fmindex"
	"repro/internal/mapper"
	"repro/internal/seed"
	"repro/internal/simulate"
	"repro/internal/trace"
)

// The axes of a configuration. Exec mode is not one: every configuration
// runs under both cl.Serial and cl.Auto.
const (
	axGeom      = iota // whole (NewFromIndex), one shard (NewSharded), K = 3, sampled SA
	axDevices          // 1 CPU; 2 CPUs split 1:1; System 1 split 2:1:1 (K = 3 takes no split)
	axSelector         // REPUTE, CORAL, Uniform
	axPrefilter        // off, GateKeeper
	axBest             // all-mapper, best-mapper
	axDelta            // δ = 0, 2, 4
	axCap              // MaxLocations binds (4), generous (400)
	axLengths          // 100 bp, mixed 40–100 bp
	axBatch            // Map, MapStream batch 7, MapStream batch 1
	axFaults           // none, scripted, the CI plan string, watchdog throttle
	axTrace            // off, on
	nAxes
)

const (
	geomWhole, geomOneShard, geomK3, geomSampled = 0, 1, 2, 3
	planNone, planScripted, planCI, planWatchdog = 0, 1, 2, 3
	ciFaultPlan                                  = "enq2=oor,alloc3=alloc,throttle4-6=0.5"
)

var space = allpairs.Space{Sizes: []int{4, 3, 3, 2, 2, 3, 2, 2, 3, 4, 2}}

type config [nAxes]int

// decodeConfig is the one decoder of configurations, shared by the
// all-pairs set and the fuzz target.
func decodeConfig(b []byte) config { return config(space.Decode(b)) }

func (c config) with(ax, v int) config { c[ax] = v; return c }

func (c config) options() mapper.Options {
	return mapper.Options{MaxErrors: []int{0, 2, 4}[c[axDelta]], MaxLocations: []int{4, 400}[c[axCap]],
		Best: c[axBest] == 1, Prefilter: []string{mapper.PrefilterOff, mapper.PrefilterGateKeeper}[c[axPrefilter]]}
}

func (c config) selector() seed.Selector {
	return []seed.Selector{seed.REPUTE{}, seed.CORAL{}, seed.Uniform{}}[c[axSelector]]
}

// equivWorld is what every configuration shares: a reference with
// high-copy repeat families, its indexes, a uniform and a mixed-length
// read set, every oracle occurrence of each read, and the references.
type equivWorld struct {
	ref            []byte
	whole, sampled *fmindex.Index
	shards         [4][]Shard // the one-shard and K = 3 geometries
	reads          [2][][]byte
	occs           [2][][2][]occ // [lengths][read][strand], within the largest δ

	mu   sync.Mutex
	refs map[config]*runOutcome
}

// occ is a DP occurrence: a text column a match ends at, within dist edits.
type occ struct{ end, dist int }

var sharedWorld = sync.OnceValue(func() *equivWorld {
	ref := simulate.Reference(simulate.Chr21Like(10_000, 11))
	set, err := simulate.Reads(ref, 36, simulate.ERR012100, 12)
	if err != nil {
		panic(err)
	}
	w := &equivWorld{ref: ref, whole: fmindex.Build(ref, fmindex.Options{}),
		sampled: fmindex.Build(ref, fmindex.Options{SASampleRate: 32}), refs: map[config]*runOutcome{}}
	w.shards[geomOneShard] = makeShards(ref, 1, 0, 0)
	w.shards[geomK3] = makeShards(ref, 3, 256, 0)
	w.reads[0] = set.Reads
	for i, r := range set.Reads {
		w.reads[1] = append(w.reads[1], r[:100-20*(i%4)])
	}
	var wg sync.WaitGroup
	for l, reads := range w.reads {
		w.occs[l] = make([][2][]occ, len(reads))
		for r, read := range reads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s, strand := range []byte{mapper.Forward, mapper.Reverse} {
					align.OccurrencesDP(pattern(read, strand), ref, 4, func(end, dist int) {
						w.occs[l][r][s] = append(w.occs[l][r][s], occ{end, dist})
					})
				}
			}()
		}
	}
	wg.Wait()
	return w
})

func newEquivWorld(tb testing.TB) *equivWorld {
	tb.Setenv("REPUTE_CL_FAULTS", "") // the fault axis carries the CI plan itself
	prev := runtime.GOMAXPROCS(8)     // a real worker pool for cl.Auto, even on one core
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	return sharedWorld()
}

func pattern(read []byte, strand byte) []byte {
	if strand == mapper.Reverse {
		return dna.ReverseComplement(read)
	}
	return read
}

// runOutcome is everything one run reports, summed over its Map calls.
type runOutcome struct {
	maps            [][]mapper.Mapping
	cost            cl.Cost
	sim, energy     float64
	devSec          map[string]float64
	faults          mapper.FaultStats
	calls, checked  int // Map calls; oracle occurrences checked (references)
	chrome, metrics []byte
	rec             *trace.Recorder
	devs            []*cl.Device
}

// devices builds c's fresh devices and arms its fault plan on them.
func (c config) devices() []*cl.Device {
	a, b := cl.SystemOneCPU(), cl.SystemOneCPU()
	a.Name, b.Name = "CPU-A", "CPU-B"
	devs := [][]*cl.Device{{a}, {a, b}, cl.SystemOne().Devices}[c[axDevices]]
	switch c[axFaults] {
	case planScripted: // device 0 retries, halves and is throttled; every other device is lost at once
		devs[0].InstallFaults(&cl.FaultPlan{FailEnqueues: map[int]cl.Code{2: cl.OutOfResources},
			FailAllocs: map[int]cl.Code{2: cl.MemObjectAllocationFailure},
			Throttles:  []cl.Throttle{{From: 3, To: 5, Factor: 0.5}}})
		for _, d := range devs[1:] {
			d.InstallFaults(&cl.FaultPlan{FailEnqueues: map[int]cl.Code{1: cl.DeviceNotAvailable}})
		}
	case planCI:
		if plan, err := cl.ParseFaultPlan(ciFaultPlan); err != nil || cl.ArmFaults(plan, devs) != nil {
			panic("arming " + ciFaultPlan)
		}
	case planWatchdog: // a 10× slowdown past the 8× watchdog budget kills device 0's first launch and its retry
		devs[0].InstallFaults(&cl.FaultPlan{Throttles: []cl.Throttle{{From: 1, To: 2, Factor: 0.1}}})
	}
	return devs
}

// run maps c's reads once: through Map or MapStream as c batches them, or,
// with inMemory, through one Map call per batch.
func (w *equivWorld) run(t *testing.T, c config, mode cl.ExecMode, inMemory bool) *runOutcome {
	o := &runOutcome{devSec: map[string]float64{}, devs: c.devices()}
	if c[axTrace] == 1 {
		o.rec = trace.NewRecorder()
	}
	cfg := Config{Exec: mode, Selector: c.selector(), Tracer: o.rec}
	if c[axGeom] != geomK3 {
		cfg.Split = [][]float64{nil, {1, 1}, {2, 1, 1}}[c[axDevices]]
	}
	var p *Pipeline
	var err error
	if ix := map[int]*fmindex.Index{geomWhole: w.whole, geomSampled: w.sampled}[c[axGeom]]; ix != nil {
		p, err = NewFromIndex(ix, o.devs, cfg)
	} else {
		p, err = NewSharded(w.shards[c[axGeom]], 256, o.devs, cfg)
	}
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	if p.Sharded() != (c[axGeom] == geomK3) || (p.Index() == nil) != p.Sharded() {
		t.Errorf("%v: the pipeline misreports its geometry", c)
	}
	reads, opt, at := w.reads[c[axLengths]], c.options(), map[string]int{}
	for i, d := range o.devs {
		at[d.Name] = i
	}
	fold := func(res *mapper.Result) {
		o.calls++
		o.maps = append(o.maps, res.Mappings...)
		o.cost.Add(res.Cost)
		o.sim, o.energy = o.sim+res.SimSeconds, o.energy+res.EnergyJ
		o.faults.Add(res.Faults)
		// Rounds add up and the devices of one round overlap: the makespan
		// lies between the slowest device and all of them, and is the
		// slowest device's when no device was lost (one round).
		slowest, sum := 0.0, 0.0
		for d, s := range res.DeviceSeconds {
			o.devSec[d] += s
			slowest, sum = max(slowest, s), sum+s
		}
		lost := res.Faults.FailedDevices
		if len(lost) == 0 && res.SimSeconds != slowest || res.SimSeconds < slowest*(1-1e-12) ||
			res.SimSeconds > sum*(1+1e-12) || !slices.IsSortedFunc(lost, func(a, b string) int { return at[a] - at[b] }) {
			t.Errorf("%v: call %d: %v s over device seconds %v, lost %v", c, o.calls, res.SimSeconds, res.DeviceSeconds, lost)
		}
	}
	batch := []int{len(reads), 7, 1}[c[axBatch]]
	if c[axBatch] == 0 || inMemory {
		for start := 0; start < len(reads) && err == nil; start += batch {
			var res *mapper.Result
			if res, err = p.Map(reads[start:min(start+batch, len(reads))], opt); err == nil {
				fold(res)
			}
		}
	} else {
		_, err = p.MapStream(context.Background(), sliceSource(reads, batch), opt,
			func(_ StreamBatch, res *mapper.Result) error { fold(res); return nil })
	}
	if want := (len(reads) + batch - 1) / batch; err != nil || len(o.maps) != len(reads) || o.calls != want {
		t.Fatalf("%v %v: %v; %d reads in %d calls, want %d in %d", c, mode, err, len(o.maps), o.calls, len(reads), want)
	}
	if o.rec != nil {
		var cb, mb bytes.Buffer
		if err := errors.Join(trace.WriteChromeTrace(&cb, o.rec), o.rec.Metrics().WriteJSON(&mb)); err != nil {
			t.Fatal(err)
		}
		o.chrome, o.metrics = cb.Bytes(), mb.Bytes()
	}
	return o
}

// reference is c's workload fault-free, serial and untraced, in one Map
// call on one device of the same geometry, held once to the oracle.
func (w *equivWorld) reference(t *testing.T, c config) *runOutcome {
	k := c.with(axDevices, 0).with(axBatch, 0).with(axFaults, planNone).with(axTrace, 0)
	w.mu.Lock()
	defer w.mu.Unlock()
	if o := w.refs[k]; o != nil {
		return o
	}
	o := w.run(t, k, cl.Serial, false)
	o.checked = w.oracle(t, k, o.maps)
	w.refs[k] = o
	return o
}

// premise computes, per read, DESIGN.md §12's sharded-equivalence premise:
// on the whole index and on every index of c's geometry the selector
// locates at most MaxLocations candidates over both strands, so neither
// the per-strand locate budget nor the verify cap truncates.
func (w *equivWorld) premise(c config) []bool {
	ixs := []*fmindex.Index{w.whole}
	for _, s := range w.shards[c[axGeom]] {
		ixs = append(ixs, s.Index)
	}
	// A State not built by a kernel has no locate budget.
	opt, st := c.options(), &mapper.State{Scratch: new(seed.Scratch)}
	holds := make([]bool, len(w.reads[c[axLengths]]))
	for r, read := range w.reads[c[axLengths]] {
		holds[r] = true
		for _, ix := range ixs {
			gen := &generator{ix: ix, selector: c.selector(), params: seed.Params{Errors: opt.MaxErrors}}
			var cost cl.Cost
			holds[r] = holds[r] && len(st.Generate(gen.generate, read, &cost)) <= opt.MaxLocations
		}
	}
	return holds
}

// oracle is property (4): every mapping realigns within its Dist ≤ δ, and
// where the premise holds every DP occurrence within δ edits (at the
// minimum distance, for a best-mapper) is reported within ±δ of its start.
// It returns how many occurrences it checked.
func (w *equivWorld) oracle(t *testing.T, c config, maps [][]mapper.Mapping) (checked int) {
	opt, holds := c.options(), w.premise(c)
	for r, read := range w.reads[c[axLengths]] {
		n, δ, occs := len(read), opt.MaxErrors, w.occs[c[axLengths]][r]
		dmin := δ + 1
		for _, o := range slices.Concat(occs[0], occs[1]) {
			dmin = min(dmin, o.dist)
		}
		for _, m := range maps[r] {
			hi := min(int(m.Pos)+n+δ, len(w.ref))
			if _, d := align.DistanceDP(pattern(read, m.Strand), w.ref[m.Pos:hi], int(m.Dist)); d < 0 ||
				int(m.Dist) > δ || holds[r] && opt.Best && int(m.Dist) != dmin {
				t.Errorf("%v: read %d: %+v does not realign within its distance (minimum %d)", c, r, m, dmin)
			}
		}
		for s, strand := range []byte{mapper.Forward, mapper.Reverse} {
			for _, o := range occs[s] {
				if !holds[r] || o.dist > δ || opt.Best && o.dist != dmin {
					continue
				}
				checked++
				if !slices.ContainsFunc(maps[r], func(m mapper.Mapping) bool {
					return m.Strand == strand && int(m.Pos) >= o.end-n-δ && int(m.Pos) <= o.end-n+δ
				}) {
					t.Errorf("%v: read %d: occurrence ending at %d (%c, %d edits) not in %v", c, r, o.end, strand, o.dist, maps[r])
				}
			}
		}
	}
	return checked
}

// sameOutcome requires b to report what a did; the Chrome trace if chrome.
func sameOutcome(t *testing.T, what string, a, b *runOutcome, chrome bool) {
	t.Helper()
	if !reflect.DeepEqual(a.maps, b.maps) || a.cost != b.cost || a.sim != b.sim || a.energy != b.energy ||
		!reflect.DeepEqual(a.devSec, b.devSec) || !reflect.DeepEqual(a.faults, b.faults) ||
		!bytes.Equal(a.metrics, b.metrics) || chrome && !bytes.Equal(a.chrome, b.chrome) {
		t.Errorf("%s differ:\n%+v\n%+v", what, *a, *b)
	}
}

// check runs c serially and in parallel and holds both runs to the four
// properties. It returns 1 if c falls outside the cross-geometry premise,
// its reads that then differ from the whole index, and its oracle count.
func (w *equivWorld) check(t *testing.T, c config) (outside, differing, checked int) {
	ref, off := w.reference(t, c), w.reference(t, c.with(axPrefilter, 0))
	root := w.reference(t, c.with(axGeom, geomWhole).with(axPrefilter, 0))
	serial, auto := w.run(t, c, cl.Serial, false), w.run(t, c, cl.Auto, false)
	opt, holds, reads := c.options(), w.premise(c), w.reads[c[axLengths]]
	shards := max(1, len(w.shards[c[axGeom]]))
	for _, o := range []*runOutcome{serial, auto} {
		// (1) Mappings: the reference's, filter on or off; the whole
		// index's wherever the premise holds, which for the one-slice
		// geometries is everywhere (the same SA rows in the same order).
		for r := range reads {
			if len(o.maps[r]) > opt.MaxLocations || !reflect.DeepEqual(o.maps[r], ref.maps[r]) ||
				!reflect.DeepEqual(o.maps[r], off.maps[r]) {
				t.Errorf("%v: read %d maps to %v, its reference to %v", c, r, o.maps[r], ref.maps[r])
			}
			if same := reflect.DeepEqual(o.maps[r], root.maps[r]); c[axGeom] != geomK3 || holds[r] {
				if !same {
					t.Errorf("%v: read %d maps to %v, the whole index to %v", c, r, o.maps[r], root.maps[r])
				}
			} else if outside = 1; o == serial && !same {
				differing++
			}
		}
		// (2) Cost: the reference's field by field, summed over calls; Bytes
		// follows each launch's longest read, so only for uniform lengths.
		got, want := o.cost, ref.cost
		if c[axLengths] == 1 {
			got.Bytes, want.Bytes = 0, 0
		}
		if got != want || o.cost.Items != int64(len(reads)*shards) || o.sim <= 0 || o.energy <= 0 {
			t.Errorf("%v: cost %+v (%v s, %v J), reference %+v", c, o.cost, o.sim, o.energy, ref.cost)
		}
		// Conservation of the filter's counters: nothing without the
		// prefilter; with it, each candidate is filtered, falsely
		// accepted or verified at most once.
		if f := o.cost; c[axPrefilter] == 0 && (f.FilterWords != 0 || f.Filtered != 0 || f.FalseAccepts != 0) ||
			c[axPrefilter] == 1 && f.Filtered+f.FalseAccepts+f.Verified > f.Candidates {
			t.Errorf("%v: filter counters %+v not conserved", c, f)
		}
		if o.rec == nil {
			continue
		}
		// The per-item histogram adds up to the queues' totals. A watchdog
		// kill discards its launch's cost after its items ran.
		m := o.rec.Metrics()
		ops := m.Histograms["item_ops"]
		if m.Counters["candidates_total"] != o.cost.Candidates ||
			m.Counters["verified_total"] != o.cost.Verified ||
			o.faults.WatchdogFires == 0 && (ops.Count != o.cost.Items || ops.Sum != float64(o.cost.Ops())) {
			t.Errorf("%v: trace tallies %v, item_ops %+v, against %+v (%d ops)", c, m.Counters, ops, o.cost, o.cost.Ops())
		}
	}
	// (3) Serial vs Auto; the recovery the fault plan must cause; and the
	// same run by the other one-shard constructor and by in-memory batches.
	sameOutcome(t, fmt.Sprintf("%v: serial and auto", c), serial, auto, true)
	w.expectRecovery(t, c, serial)
	if c[axGeom] == geomOneShard {
		twin := w.run(t, c.with(axGeom, geomWhole), cl.Serial, false)
		sameOutcome(t, fmt.Sprintf("%v: NewSharded and NewFromIndex", c), serial, twin, true)
	}
	if c[axBatch] != 0 {
		sameOutcome(t, fmt.Sprintf("%v: MapStream and Map per batch", c), serial, w.run(t, c, cl.Serial, true), false)
	}
	if c[axTrace] == 1 { // tracing observes and never charges
		off := w.run(t, c.with(axTrace, 0), cl.Serial, false)
		off.chrome, off.metrics = serial.chrome, serial.metrics
		sameOutcome(t, fmt.Sprintf("%v: traced and untraced", c), serial, off, true)
	}
	if c[axFaults] == planNone && c[axBatch] != 2 && len(serial.devSec) != len(serial.devs) {
		t.Errorf("%v: %d of %d devices ran: %v", c, len(serial.devSec), len(serial.devs), serial.devSec)
	}
	// Across references: a sampled SA pays more locate steps; K = 3 under
	// the premise verifies exactly the whole index's matches, each in the
	// shard that owns it; under a generous cap the CORAL heuristic
	// verifies no fewer words than the DP optimum.
	whole, dp := w.reference(t, c.with(axGeom, geomWhole)), w.reference(t, c.with(axSelector, 0))
	if c[axGeom] == geomSampled && ref.cost.LocateSteps <= whole.cost.LocateSteps ||
		c[axGeom] == geomK3 && !slices.Contains(holds, false) && ref.cost.Verified != whole.cost.Verified ||
		c[axSelector] == 1 && c[axCap] == 1 && ref.cost.VerifyWords < dp.cost.VerifyWords {
		t.Errorf("%v: reference cost %+v, on the whole index %+v, with the DP selector %+v", c, ref.cost, whole.cost, dp.cost)
	}
	return outside, differing, ref.checked
}

// expectRecovery holds a run to the recovery its fault plan must cause,
// and a traced run's events to its FaultStats.
func (w *equivWorld) expectRecovery(t *testing.T, c config, o *runOutcome) {
	f, lead := o.faults, o.devs[0]
	lost := c[axFaults] == planScripted && len(o.devs) > 1 && (c[axGeom] == geomK3 || c[axBatch] != 2)
	halved := map[bool]int{true: 1}[c[axBatch] != 2] // the scripted alloc2 fault on a batch of more than one read
	if !map[int]bool{
		planNone: !f.Any(),
		planScripted: f.Retries >= 1 && f.DegradedBatches == halved && (len(f.FailedDevices) > 0) == lost &&
			(f.FailoverReads > 0) == lost && !slices.Contains(f.FailedDevices, lead.Name),
		planCI: f.Any() && len(f.FailedDevices) == 0,
		planWatchdog: f.WatchdogFires == 2 && f.Retries == 2 && len(f.FailedDevices) == 0 &&
			lead.BreakerState() == cl.BreakerClosed,
	}[c[axFaults]] {
		t.Errorf("%v: fault plan %d recovered by %+v", c, c[axFaults], f)
	}
	if o.rec == nil {
		return
	}
	ev := map[string]int{}
	for _, e := range o.rec.Events() {
		ev[e.Name]++
	}
	// Every fault, injected or a watchdog kill, gets exactly one answer: a
	// retry, a halved batch or a lost device. A kill charges the time it
	// wasted as a penalty, as a retry charges its backoff.
	faults := o.rec.Metrics().Counters["faults_total"]
	if ev["map"] != o.calls || ev["round 1"] != o.calls || (ev["round 2"] > 0) != (f.FailoverReads > 0) ||
		ev["retry"] != f.Retries || ev["penalty"] != f.Retries+f.WatchdogFires ||
		ev["batch-halved"] != f.DegradedBatches || ev["device-failed"] != len(f.FailedDevices) ||
		ev["watchdog-fired"] != f.WatchdogFires || (ev["failover"] > 0) != (f.FailoverReads > 0) ||
		ev["alloc"] == 0 || ev["alloc"] != ev["free"] ||
		faults+int64(f.WatchdogFires) != int64(f.Retries+f.DegradedBatches+len(f.FailedDevices)) {
		t.Errorf("%v: trace events %v, faults_total %d, against %+v", c, ev, faults, f)
	}
	for d := range o.devSec {
		if lanes := o.rec.Lanes(); !slices.Contains(lanes, d) || !slices.Contains(lanes, "host") {
			t.Errorf("%v: lanes %v lack host or %s", c, lanes, d)
		}
	}
	if err := o.rec.Validate(); err != nil {
		t.Errorf("%v: %v", c, err)
	}
}

// TestEquivalence runs the all-pairs set, failing if any pair of axis
// values is missing from it. Configurations outside the cross-geometry
// premise are counted and logged, not generated away: there sharded and
// whole mappings may differ (DESIGN.md §12), and the count must be > 0.
func TestEquivalence(t *testing.T) {
	w := newEquivWorld(t)
	set := space.Draw(1)
	if missing := space.Uncovered(set); len(missing) > 0 {
		t.Fatalf("no configuration holds the axis-value pairs %v", missing)
	}
	outside, differing, checked := 0, 0, 0
	for _, d := range set {
		c := config(d)
		o, d, n := w.check(t, c)
		outside, differing, checked = outside+o, differing+d, checked+n
	}
	t.Logf("%d configurations, %d outside the cross-geometry premise with %d reads there differing from the whole index; %d oracle occurrences checked",
		len(set), outside, differing, checked)
	if outside == 0 || checked == 0 {
		t.Error("no configuration fell outside the premise, or the oracle checked nothing")
	}
}

// FuzzEquivalence decodes a configuration from the fuzz input with the
// all-pairs set's decoder and holds it to the same four properties.
func FuzzEquivalence(f *testing.F) {
	f.Add([]byte{geomK3, 2, 1, 1, 0, 2, 0, 1, 1, planScripted, 1}) // K = 3 on System 1, a device lost, traced
	w := newEquivWorld(f)
	f.Fuzz(func(t *testing.T, b []byte) { w.check(t, decodeConfig(b)) })
}
