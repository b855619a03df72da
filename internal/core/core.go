// Package core implements REPUTE, the paper's contribution: an OpenCL
// read mapper for heterogeneous systems. The host program builds the
// FM-index preprocessing, splits the read set across any number of
// simulated OpenCL devices in task-parallel fashion, allocates the static
// kernel buffers that OpenCL 1.2 demands (batching when a buffer would
// exceed the 1/4-of-RAM allocation limit), and launches a combined
// filtration + verification kernel per batch.
//
// The filtration stage is the memory-optimised dynamic-programming seed
// selection of §II-B (seed.REPUTE); the verification stage is the Myers
// bit-vector (§II-A). A different Selector — e.g. seed.CORAL — turns the
// same pipeline into the CORAL comparison mapper, mirroring how the two
// tools share their kernel flow in the paper.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/align"
	"repro/internal/cl"
	"repro/internal/dna"
	"repro/internal/fmindex"
	"repro/internal/mapper"
	"repro/internal/seed"
	"repro/internal/trace"
)

// outBytes is the size of a read's fixed output slot: the first-n
// policy's MaxLoc locations of 8 bytes each (pos int32 + strand/dist
// packed), matching the paper's first-n output policy.
func outBytes(opt mapper.Options) int64 { return int64(opt.Policy().MaxLoc) * 8 }

// Config tunes a Pipeline.
type Config struct {
	// Name labels the mapper in results ("REPUTE-cpu", "REPUTE-all", ...).
	Name string
	// Selector is the filtration strategy; nil means seed.REPUTE{}.
	Selector seed.Selector
	// Split gives each device's share of the reads; nil or all-zero
	// means everything on the first device. Shares are normalised.
	Split []float64
	// Exec pins the host execution mode of the pipeline's queues;
	// cl.Auto (the zero value) runs parallel. Simulated results are
	// identical either way — cl.Serial exists for debugging and for
	// determinism regression tests.
	Exec cl.ExecMode
	// Tracer receives spans and instants for every enqueue, penalty,
	// buffer event, round, retry and failover, keyed on simulated time
	// (DESIGN.md §10), and each work item's op count in its item-ops
	// histogram. nil disables tracing with zero overhead on the hot path.
	Tracer *trace.Recorder
}

// Shard binds one reference slice's FM-index to its global placement:
// the index covers text[SliceStart:SliceEnd] and *owns* (reports
// mappings for) positions in [OwnStart, OwnEnd). Neighbouring slices
// overlap so reads straddling an ownership boundary are still fully
// contained in some shard's slice.
type Shard struct {
	Index                *fmindex.Index
	OwnStart, OwnEnd     int64
	SliceStart, SliceEnd int64
}

// Pipeline is a REPUTE-style mapper bound to a reference and devices.
// The reference is always a list of shards: a whole index is the single
// shard that owns and slices [0, n). Work is tracked as (shard,
// read-span) units on one fault-tolerant round engine, and a failed
// device's units — its reference shards included — re-dispatch to the
// survivors. Every read goes to every shard: shard s's read range splits
// across devices by the configured shares, or lands whole on device
// s mod D when no share is positive (always so for K > 1 shards, which
// take no Split), and per-shard mappings merge in global coordinates.
type Pipeline struct {
	name     string
	shards   []Shard
	overlap  int // shard slice overlap in bases
	devices  []*cl.Device
	split    []float64
	selector seed.Selector
	exec     cl.ExecMode

	// tracer is Config.Tracer (nil when off). traceSec is the simulated
	// time already traced by earlier Map calls on this pipeline, so
	// successive runs (successive batches of one stream) extend one
	// timeline; traceMu guards it across concurrent Map calls.
	tracer   *trace.Recorder
	traceMu  sync.Mutex
	traceSec float64 // guarded by traceMu
}

// New builds the full-suffix-array index of ref and returns the pipeline.
func New(ref []byte, devices []*cl.Device, cfg Config) (*Pipeline, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("core: empty reference")
	}
	return NewFromIndex(fmindex.Build(ref, fmindex.Options{}), devices, cfg)
}

// NewFromIndex wraps an existing whole-reference index (e.g. loaded from
// disk) as the one shard that owns every position.
func NewFromIndex(ix *fmindex.Index, devices []*cl.Device, cfg Config) (*Pipeline, error) {
	n := int64(ix.Len())
	return NewSharded([]Shard{{Index: ix, OwnEnd: n, SliceEnd: n}}, 0, devices, cfg)
}

// NewSharded builds a pipeline over reference shards: each shard's
// FM-index covers one overlapping reference slice (normally loaded from a
// sharded index artifact). overlap is the slice overlap the shards were
// built with; Map validates it against the read length so
// boundary-straddling alignments cannot be silently lost. Config.Split
// applies only to a single shard — several shards are dealt whole onto
// devices round-robin.
func NewSharded(shards []Shard, overlap int, devices []*cl.Device, cfg Config) (*Pipeline, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: no shards")
	}
	if cfg.Split != nil && len(shards) > 1 {
		return nil, fmt.Errorf("core: read-split shares do not apply to shard dispatch")
	}
	prev := int64(0)
	for i, s := range shards {
		if s.Index == nil {
			return nil, fmt.Errorf("core: shard %d has no index", i)
		}
		if s.OwnStart != prev || s.OwnEnd < s.OwnStart ||
			s.SliceStart > s.OwnStart || s.SliceEnd < s.OwnEnd {
			return nil, fmt.Errorf("core: shard %d has inconsistent geometry", i)
		}
		if int64(s.Index.Len()) != s.SliceEnd-s.SliceStart {
			return nil, fmt.Errorf("core: shard %d index covers %d bases, slice is %d",
				i, s.Index.Len(), s.SliceEnd-s.SliceStart)
		}
		prev = s.OwnEnd
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("core: no devices")
	}
	if cfg.Split != nil && len(cfg.Split) != len(devices) {
		return nil, fmt.Errorf("core: split has %d entries for %d devices",
			len(cfg.Split), len(devices))
	}
	for i, w := range cfg.Split {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("core: split entry %d is %v, want a finite share >= 0", i, w)
		}
	}
	p := &Pipeline{name: cfg.Name, shards: shards, overlap: overlap, devices: devices,
		split: cfg.Split, selector: cfg.Selector, exec: cfg.Exec, tracer: cfg.Tracer}
	if p.selector == nil {
		p.selector = seed.REPUTE{}
	}
	if p.name == "" {
		p.name = "REPUTE"
	}
	return p, nil
}

// Sharded reports whether the reference is partitioned into several
// shards (shard dispatch) rather than held as one whole index.
func (p *Pipeline) Sharded() bool { return len(p.shards) > 1 }

// Name implements mapper.Mapper.
func (p *Pipeline) Name() string { return p.name }

// Devices returns the devices the pipeline maps on.
func (p *Pipeline) Devices() []*cl.Device { return p.devices }

// Tracer returns the pipeline's tracer, nil when tracing is off.
func (p *Pipeline) Tracer() *trace.Recorder { return p.tracer }

// Index exposes the whole-reference FM-index (examples inspect it). It is
// nil for shard-dispatch pipelines, which hold per-slice indexes instead.
func (p *Pipeline) Index() *fmindex.Index {
	if p.Sharded() {
		return nil
	}
	return p.shards[0].Index
}

// shardOwning returns the shard whose ownership range contains the
// global position, or nil.
func (p *Pipeline) shardOwning(pos int64) *Shard {
	for i := range p.shards {
		if s := &p.shards[i]; pos >= s.OwnStart && pos < s.OwnEnd {
			return s
		}
	}
	return nil
}

// CigarFor recovers the CIGAR string of a reported mapping by re-aligning
// the read against the mapped reference window — the SAM-output feature
// the paper's §IV defers to future versions. Cost is paid only for
// mappings actually written out. The window comes from the owning shard's
// slice; with several shards, mappings sit at least one read length from
// the slice edge (the overlap Map validates), so the window never clips.
func (p *Pipeline) CigarFor(read []byte, m mapper.Mapping, maxErrors int) (align.Cigar, error) {
	pattern := read
	if m.Strand == mapper.Reverse {
		pattern = dna.ReverseComplement(read)
	}
	sh := p.shardOwning(int64(m.Pos))
	if sh == nil {
		return nil, fmt.Errorf("core: mapping position %d out of range", m.Pos)
	}
	text := sh.Index.Text()
	lo := int(int64(m.Pos) - sh.SliceStart) // inside the slice: owned ⊂ sliced
	hi := lo + len(pattern) + maxErrors
	if hi > text.Len() {
		hi = text.Len()
	}
	window := text.Slice(lo, hi)
	match, cigar, ok := align.AlignCigar(pattern, window, int(m.Dist))
	if !ok {
		return nil, fmt.Errorf("core: mapping at %d does not realign within %d edits", m.Pos, m.Dist)
	}
	if match.Start != 0 {
		// The window starts exactly at the mapping position, so the best
		// alignment should anchor there; tolerate small shifts by
		// prepending a deletion-free offset via re-slice.
		window = window[match.Start:]
		_, cigar, ok = align.AlignCigar(pattern, window, int(m.Dist))
		if !ok {
			return nil, fmt.Errorf("core: realignment drifted at %d", m.Pos)
		}
	}
	return cigar, nil
}

// DefaultMinSeedLen picks Smin for a read length and error count the way
// the paper's experiments do ("the best performances of REPUTE taking
// into consideration the k-mer lengths"): it targets an exploration
// window of ~44 prefixes — enough freedom for the DP to matter without
// blowing up filtration time — clamped to [8, 16] and to feasibility.
func DefaultMinSeedLen(readLen, errors int) int {
	parts := errors + 1
	smin := (readLen - 44) / parts
	if smin > 16 {
		smin = 16
	}
	if smin < 8 {
		smin = 8
	}
	if parts*smin > readLen {
		smin = readLen / parts
	}
	if smin < 1 {
		smin = 1
	}
	return smin
}

// minSeedLen is the Smin a read of readLen bases is seeded with: the
// explicit one when set, else the default for that read's own length.
func minSeedLen(explicit, readLen, errors int) int {
	if explicit > 0 {
		return explicit
	}
	return DefaultMinSeedLen(readLen, errors)
}

// apportion splits total into per-device counts proportional to the
// positive weights, by largest remainder: each positive weight gets
// ⌊total·w/Σw⌋, and the reads left over go one each to the largest
// fractional parts — ties to the larger weight, then the lower index. A
// weight that is zero or negative gets nothing. Returns nil when no
// weight is positive.
func apportion(total int, weights []float64) []int {
	sum := 0.0
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if sum == 0 {
		return nil
	}
	counts := make([]int, len(weights))
	frac := make([]float64, len(weights))
	var order []int
	left := total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		share := float64(total) * w / sum
		counts[i] = int(share)
		frac[i] = share - float64(counts[i])
		left -= counts[i]
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if c := cmp.Compare(frac[b], frac[a]); c != 0 {
			return c
		}
		return cmp.Compare(weights[b], weights[a])
	})
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

// pending is a half-open span [start, end) of global read indices still
// awaiting mapping. The failover machinery moves spans, not individual
// reads, so redistribution stays O(devices) per round.
type pending struct{ start, end int }

// unit is the engine's work quantum: a span of reads to map against one
// shard's index. With one shard the spans partition the read set; with
// several each shard broadcasts the full read range, so the same read
// index appears in one unit per shard. Failover moves units, which is
// what re-homes a lost device's reference slice onto the survivors.
type unit struct {
	shard int
	span  pending
}

// unitReads counts the read-dispatches covered by units.
func unitReads(units []unit) int {
	n := 0
	for _, u := range units {
		n += u.span.end - u.span.start
	}
	return n
}

// outcome is one device's report at a round barrier: the units it did
// not finish, the permanent failure that stopped it (nil when it finished
// them all), the recovery work it performed, and the simulated busy time
// the round added to its queue.
type outcome struct {
	unmapped []unit
	err      error
	stats    mapper.FaultStats
	busy     float64
}

// Map implements mapper.Mapper. Each device's share runs in its own host
// goroutine over its own queue — the paper's task-parallel model — and
// the shares join at a barrier before aggregation.
//
// The barrier is also the recovery point: a device that fails permanently
// (CL_DEVICE_NOT_AVAILABLE, a deterministic kernel fault, an infeasible
// allocation) reports its unfinished spans, and the next round deals them
// over the surviving devices by the same rule that placed the first.
// Transient faults never reach the barrier — mapOnDevice retries them in
// place. Map fails only when no device can finish the workload.
//
// Recovery changes where and when work runs, never what it computes:
// mappings and Cost are identical to a fault-free run (the determinism
// suite asserts this), while SimSeconds accumulates each round's makespan
// and mapper.Result.Faults accounts the recovery actions.
//
// Aggregation happens in device order, so simulated seconds, energy and
// cost are independent of which device's goroutine finishes first.
func (p *Pipeline) Map(reads [][]byte, opt mapper.Options) (*mapper.Result, error) {
	opt = opt.WithDefaults()
	if err := mapper.ValidateReads(reads, opt); err != nil {
		return nil, err
	}
	if err := p.validateLengths(reads, opt); err != nil {
		return nil, err
	}
	// Chaos hook: REPUTE_CL_FAULTS turns any pipeline run into a
	// fault-recovery run.
	if err := cl.ArmFaults(cl.EnvFaultPlan(), p.devices); err != nil {
		return nil, err
	}
	res := &mapper.Result{
		Mappings:      make([][]mapper.Mapping, len(reads)),
		DeviceSeconds: map[string]float64{},
	}
	ctx := cl.NewContext()
	// traceBase is where this run starts on the pipeline's traced
	// timeline: fresh queues count busy time from zero, so the origin
	// shifts their spans past everything already recorded (a second Map
	// call — the next batch of one stream — continues the timeline, not
	// overlaps it).
	traceBase := 0.0
	if p.tracer != nil {
		p.traceMu.Lock()
		traceBase = p.traceSec
		p.traceMu.Unlock()
		ctx.SetTracer(p.tracer)
		id := p.tracer.Begin("host", "map", traceBase,
			trace.I64("reads", int64(len(reads))),
			trace.I64("devices", int64(len(p.devices))),
			trace.Str("mapper", p.name))
		defer func() {
			p.traceMu.Lock()
			p.traceSec = traceBase + res.SimSeconds
			p.traceMu.Unlock()
			p.tracer.End(id, traceBase+res.SimSeconds,
				trace.F64("sim_seconds", res.SimSeconds),
				trace.F64("energy_j", res.EnergyJ))
		}()
	}
	queues := make([]*cl.Queue, len(p.devices))
	for i, dev := range p.devices {
		queues[i] = cl.NewQueue(dev)
		queues[i].SetExecMode(p.exec)
		queues[i].SetTracer(p.tracer)
		queues[i].SetTraceOrigin(traceBase)
	}

	// Output destinations: one shard writes straight into res.Mappings;
	// several each write a per-shard partial that merges in global
	// coordinates once every round has completed.
	outs := [][][]mapper.Mapping{res.Mappings}
	if p.Sharded() {
		outs = make([][][]mapper.Mapping, len(p.shards))
		for s := range outs {
			outs[s] = make([][]mapper.Mapping, len(reads))
		}
	}
	// Every round deals its units through the one placement rule: round 1
	// each shard's whole read range, later rounds what failed devices left
	// behind. An empty span is never placed, so an empty read set runs
	// nothing. The call starts with one admission decision (cl.Admit): a
	// device whose breaker stays open sits it out in the failed set, and
	// one it half-opens runs its first batch as the canary — a canary
	// failure fails it over mid-run like any other permanent fault.
	units := make([]unit, len(p.shards))
	for s := range units {
		units[s] = unit{shard: s, span: pending{0, len(reads)}}
	}
	failed := make([]bool, len(p.devices))
	for i, st := range cl.Admit(p.devices, 1, p.tracer) {
		failed[i] = st == cl.BreakerOpen
	}
	ran := make([]bool, len(p.devices))
	var devErrs []error
	for round := 1; ; round++ {
		assign := p.deal(units, failed)
		if assign == nil {
			return nil, fmt.Errorf("core: no device completed the workload: %w", errors.Join(devErrs...))
		}
		outcomes := make([]outcome, len(p.devices))
		var wg sync.WaitGroup
		for di, us := range assign {
			if len(us) == 0 {
				continue
			}
			ran[di] = true
			wg.Add(1)
			go func() {
				defer wg.Done()
				outcomes[di] = p.mapOnDevice(ctx, queues[di], us, reads, outs, opt)
			}()
		}
		wg.Wait()

		// Rounds are sequential, devices within a round concurrent: the
		// round's makespan is the max per-device busy delta.
		roundMax := 0.0
		for _, o := range outcomes {
			roundMax = max(roundMax, o.busy)
		}
		p.span("host", traceBase+res.SimSeconds, roundMax, func() (string, []trace.Attr) {
			return fmt.Sprintf("round %d", round), []trace.Attr{trace.F64("makespan_sec", roundMax)}
		})
		res.SimSeconds += roundMax

		// Collect outcomes in device order so stats and error lists are
		// deterministic.
		units = nil
		for di, dev := range p.devices {
			o := &outcomes[di]
			res.Faults.Add(o.stats)
			if o.err == nil {
				continue
			}
			failed[di] = true
			res.Faults.FailedDevices = append(res.Faults.FailedDevices, dev.Name)
			devErrs = append(devErrs, fmt.Errorf("device %s: %w", dev.Name, o.err))
			units = append(units, o.unmapped...)
			p.instant(dev.Name, "device-failed", func() []trace.Attr {
				return []trace.Attr{trace.Str("error", o.err.Error()),
					trace.I64("unmapped_reads", int64(unitReads(o.unmapped)))}
			})
		}
		if len(units) == 0 {
			break
		}
		n := unitReads(units)
		res.Faults.FailoverReads += n
		p.instant("host", "failover", func() []trace.Attr {
			return []trace.Attr{trace.I64("reads", int64(n)), trace.I64("round", int64(round))}
		})
	}

	// Aggregate in device order over every queue that ran.
	for di, dev := range p.devices {
		if !ran[di] {
			continue
		}
		busy, cost := queues[di].Finish()
		res.DeviceSeconds[dev.Name] += busy
		res.EnergyJ += queues[di].EnergyJ()
		res.Cost.Add(cost)
	}

	// Several shards: merge the per-shard partials per read. Shards
	// already globalized positions and filtered to their ownership
	// ranges, so the merge is a deterministic re-finalize over disjoint
	// position sets — independent of device count, scheduling and
	// failover history.
	if p.Sharded() {
		parts := make([][]mapper.Mapping, len(outs))
		for r := range reads {
			for s := range outs {
				parts[s] = outs[s][r]
			}
			res.Mappings[r] = mapper.MergeShards(parts, opt.Best, opt.MaxLocations)
		}
	}
	return res, nil
}

// instant emits a trace instant when tracing is on. attrs is a thunk
// (nil for none) so that a run without a tracer builds no Attr and
// renders no error string.
func (p *Pipeline) instant(lane, name string, attrs func() []trace.Attr) {
	if p.tracer == nil {
		return
	}
	var as []trace.Attr
	if attrs != nil {
		as = attrs()
	}
	p.tracer.Instant(lane, name, as...)
}

// span is instant's counterpart for a completed span; the thunk also
// supplies the name, which callers format.
func (p *Pipeline) span(lane string, start, dur float64, ev func() (string, []trace.Attr)) {
	if p.tracer == nil {
		return
	}
	name, attrs := ev()
	p.tracer.Span(lane, name, start, dur, attrs...)
}

// validateLengths refuses, before anything launches, reads the run cannot
// seed or place. The DP selector needs δ+1 seeds of Smin in every read,
// so an explicit MinSeedLen longer reads could host is refused naming the
// first read that cannot (the default Smin is chosen per read and always
// fits). And a read of length L mapping with up to δ edits under shard
// dispatch needs every candidate window of length L+2δ around an owned
// position inside the owning shard's slice, so the slice margin must be
// at least L+2δ; failing loudly here is what makes the shard-vs-whole
// equivalence guarantee honest.
func (p *Pipeline) validateLengths(reads [][]byte, opt mapper.Options) error {
	_, dp := p.selector.(seed.REPUTE)
	parts := opt.MaxErrors + 1
	maxLen := 0
	for i, r := range reads {
		if dp && opt.MinSeedLen > 0 && len(r) < parts*opt.MinSeedLen {
			return fmt.Errorf("core: read %d of length %d cannot host %d seeds of MinSeedLen %d",
				i, len(r), parts, opt.MinSeedLen)
		}
		maxLen = max(maxLen, len(r))
	}
	if !p.Sharded() {
		return nil
	}
	if need := maxLen + 2*opt.MaxErrors; p.overlap < need {
		return fmt.Errorf("core: shard overlap %d is too small for %d-base reads with %d errors (need >= %d); rebuild the index with a larger overlap",
			p.overlap, maxLen, opt.MaxErrors, need)
	}
	return nil
}

// shares is the placement rule: the weights shard s's reads split by
// across the devices. The configured split applies over the devices that
// have not failed. With no positive live share the shard goes whole to
// device s mod D while nothing has failed (always so for several shards,
// which take no split), and spreads evenly over the survivors once a
// device has failed. Every weight is zero when every device has failed.
func (p *Pipeline) shares(s int, failed []bool) []float64 {
	w := make([]float64, len(p.devices))
	positive, anyFailed := false, false
	for i := range w {
		switch {
		case failed[i]:
			anyFailed = true
		case p.split != nil:
			w[i] = p.split[i]
			positive = positive || w[i] > 0
		}
	}
	switch {
	case positive:
	case !anyFailed:
		w[s%len(w)] = 1
	default:
		for i := range w {
			if !failed[i] {
				w[i] = 1
			}
		}
	}
	return w
}

// deal places units on the devices, shard by shard: each device takes
// apportion(reads, shares(shard, failed)) of the shard's read-dispatches,
// dealt in device order over the shard's spans in read order, so a span
// splits at a device boundary and a lost device's reference slice
// re-dispatches (with its unfinished reads) onto every survivor. No empty
// span is placed. Returns nil when every device has failed.
func (p *Pipeline) deal(units []unit, failed []bool) [][]unit {
	sort.Slice(units, func(i, j int) bool {
		if units[i].shard != units[j].shard {
			return units[i].shard < units[j].shard
		}
		return units[i].span.start < units[j].span.start
	})
	assign := make([][]unit, len(p.devices))
	for lo := 0; lo < len(units); {
		s, hi := units[lo].shard, lo
		for hi < len(units) && units[hi].shard == s {
			hi++
		}
		counts := apportion(unitReads(units[lo:hi]), p.shares(s, failed))
		if counts == nil {
			return nil
		}
		di, left := 0, counts[0] // left: reads device di still takes
		for _, u := range units[lo:hi] {
			for pos := u.span.start; pos < u.span.end; {
				for left == 0 {
					di++
					left = counts[di]
				}
				take := min(u.span.end-pos, left)
				assign[di] = append(assign[di], unit{s, pending{pos, pos + take}})
				pos += take
				left -= take
			}
		}
		lo = hi
	}
	return assign
}

// mapOnDevice runs one device's assigned units on its queue, batching
// reads so the static buffers respect CL_DEVICE_MAX_MEM_ALLOC_SIZE. The
// device holds one shard's index buffer at a time — freed when the next
// unit needs a different shard, the embedded-memory model — so a device
// serving several shards pays one allocation per shard changeover. It
// implements the in-place recovery tier: transient faults retry on the
// same device with doubling simulated backoff, allocation failures halve
// the batch, and anything permanent stops the device and reports the
// unfinished units for failover.
func (p *Pipeline) mapOnDevice(ctx *cl.Context, queue *cl.Queue, units []unit, reads [][]byte, outs [][][]mapper.Mapping, opt mapper.Options) (o outcome) {
	dev := queue.Device()
	before, _ := queue.Finish()
	defer func() {
		after, _ := queue.Finish()
		o.busy = after - before
	}()
	var ixBuf *cl.Buffer // the resident shard's index, nil before the first unit
	resident := 0
	defer func() {
		if ixBuf != nil {
			ixBuf.Free()
		}
	}()
	retry := retrier{p: p, queue: queue, stats: &o.stats}

	for ui, u := range units {
		sh := &p.shards[u.shard]
		if ixBuf == nil || u.shard != resident {
			if ixBuf != nil {
				ixBuf.Free()
				ixBuf = nil
			}
			// Injected transient allocation failures retry like kernel
			// launches; a buffer that genuinely does not fit repeats
			// identically and fails the device at once.
			retry.reset()
			buf, err := ctx.AllocBuffer(dev, sh.Index.SizeBytes())
			for err != nil && retry.transient(err) {
				buf, err = ctx.AllocBuffer(dev, sh.Index.SizeBytes())
			}
			if err != nil {
				o.err = fmt.Errorf("index does not fit: %w", err)
				o.unmapped = append([]unit{}, units[ui:]...)
				return o
			}
			ixBuf, resident = buf, u.shard
		}
		out := outs[u.shard]
		sp := u.span
		// Each static buffer — the output slots and the packed reads —
		// must fit one allocation. newBatch sizes the read buffer by the
		// batch's longest read, so bound the batch by the span's.
		readLen := 0
		for _, r := range reads[sp.start:sp.end] {
			readLen = max(readLen, len(r))
		}
		batch := int(min(int64(sp.end-sp.start), dev.MaxAlloc/outBytes(opt), dev.MaxAlloc/int64((readLen+3)/4)))
		if batch < 1 {
			o.err = fmt.Errorf("a single read's buffers exceed the allocation limit")
			o.unmapped = append([]unit{u}, units[ui+1:]...)
			return o
		}
		start := sp.start
		retry.reset()
		for start < sp.end {
			end := start + batch
			if end > sp.end {
				end = sp.end
			}
			err := p.runBatch(ctx, queue, sh, reads[start:end], out[start:end], opt)
			if err == nil {
				start = end
				retry.reset()
				continue
			}
			if cl.IsWatchdogTimeout(err) {
				o.stats.WatchdogFires++
			}
			switch {
			case cl.IsAllocFailure(err) && end-start > 1:
				// OpenCL's static-allocation wall: halve the batch and go
				// around degraded rather than give the device up.
				batch = (end - start + 1) / 2
				o.stats.DegradedBatches++
				p.instant(dev.Name, "batch-halved", func() []trace.Attr {
					return []trace.Attr{trace.I64("batch", int64(batch)), trace.Str("error", err.Error())}
				})
			case retry.transient(err):
			default:
				o.err = err
				o.unmapped = append([]unit{{u.shard, pending{start, sp.end}}}, units[ui+1:]...)
				return o
			}
		}
	}
	return o
}

// The first rung of the recovery ladder (retry → halve the batch → fail
// over): a transient fault re-runs in place at most maxRetries times, the
// first after firstBackoffSimSec of simulated backoff, doubling per attempt.
const (
	maxRetries         = 3
	firstBackoffSimSec = 1e-3
)

// retrier is the bookkeeping of the in-place recovery tier for one
// operation at a time: a bounded number of attempts with doubling
// simulated backoff, charged to the device's busy time and tallied in
// the device's fault stats.
type retrier struct {
	p        *Pipeline
	queue    *cl.Queue
	stats    *mapper.FaultStats
	attempts int
	backoff  float64
}

// reset starts a fresh operation (or acknowledges a success).
func (r *retrier) reset() { r.attempts, r.backoff = 0, firstBackoffSimSec }

// transient reports whether err is worth another attempt on this device,
// charging the backoff when it is. In-place retries are pointless once
// the device's breaker has opened (a failed half-open canary, or the
// failure score crossing the threshold): the work fails over instead.
func (r *retrier) transient(err error) bool {
	dev := r.queue.Device()
	if !cl.IsTransient(err) || r.attempts >= maxRetries || dev.BreakerState() == cl.BreakerOpen {
		return false
	}
	r.attempts++
	r.queue.ChargePenalty(r.backoff)
	r.stats.Retries++
	r.stats.BackoffSimSec += r.backoff
	r.backoff *= 2
	r.p.instant(dev.Name, "retry", func() []trace.Attr {
		return []trace.Attr{trace.I64("attempt", int64(r.attempts)), trace.Str("error", err.Error())}
	})
	return true
}

// runBatch allocates the batch's static read and output buffers and
// enqueues its one kernel — seed, optional pre-alignment filter and
// verification are stages of the same work item, so the filter changes
// what an item does, never what a batch allocates or launches. An
// oversized batch fails allocation and is halved by mapOnDevice.
func (p *Pipeline) runBatch(ctx *cl.Context, queue *cl.Queue, sh *Shard, reads [][]byte, out [][]mapper.Mapping, opt mapper.Options) error {
	dev := queue.Device()
	b := p.newBatch(sh, reads, out, opt)
	inBuf, err := ctx.AllocBuffer(dev, int64(len(reads))*b.InBytes)
	if err != nil {
		return fmt.Errorf("read buffer: %w", err)
	}
	defer inBuf.Free()
	outBuf, err := ctx.AllocBuffer(dev, int64(len(reads))*b.OutBytes)
	if err != nil {
		return fmt.Errorf("output buffer: %w", err)
	}
	defer outBuf.Free()
	kern := b.Kernel()
	if p.tracer != nil {
		kern = instrumentKernel(kern, p.tracer.ItemOpsHistogram())
	}
	_, err = queue.EnqueueNDRange(kern, len(reads))
	return err
}

// instrumentKernel wraps a kernel so each work item's total charged op
// count is observed into h after the inner body runs. The wrapper keeps
// the kernel contract: it delegates every item to the already-vetted
// inner body and adds no captured mutable state (Histogram.Observe is
// internally synchronised, and op counts are integers so the histogram
// sum is order-independent — serial and parallel runs agree exactly).
func instrumentKernel(k *cl.Kernel, h *trace.Histogram) *cl.Kernel {
	inner := k.Body
	out := *k
	out.Body = func(wi *cl.WorkItem, state any) {
		inner(wi, state)
		h.Observe(float64(wi.Cost().Ops()))
	}
	return &out
}

// generator is REPUTE's candidate generator (mapper.Generator): the
// configured selector places the seeds of one strand, in the worker's
// seed.Scratch, and their occurrences are located in seed order, up to
// the strand's locate budget.
type generator struct {
	ix       *fmindex.Index
	selector seed.Selector
	params   seed.Params // MinSeedLen 0: each pattern's own default
}

//repute:hotpath
func (g *generator) generate(st *mapper.State, pattern []byte, strand byte, cost *cl.Cost) {
	params := g.params
	params.MinSeedLen = minSeedLen(params.MinSeedLen, len(pattern), params.Errors)
	sel, err := st.Scratch.(*seed.Scratch).Select(g.selector, g.ix, pattern, params)
	if err != nil {
		// Static kernels cannot recover; surface as a launch
		// failure like a real kernel fault would.
		panic(err)
	}
	cost.FMSteps += int64(sel.FMSteps)
	cost.DPCells += int64(sel.DPCells)
	for _, s := range sel.Seeds {
		st.Locate(g.ix, s.Lo, s.Hi, s.Start, strand, cost)
	}
}

// newBatch describes one batch of reads against one shard to the shared
// kernel builder: the selector-driven generator, the shard's slice and
// ownership geometry, the static buffer sizes, and the all-mapper
// first-n policy.
func (p *Pipeline) newBatch(sh *Shard, reads [][]byte, out [][]mapper.Mapping, opt mapper.Options) *mapper.Batch {
	params := seed.Params{
		Errors:      opt.MaxErrors,
		MinSeedLen:  opt.MinSeedLen,
		MaxSeedFreq: opt.MaxSeedFreq,
	}
	// A static kernel declares its worst work item: the longest read's
	// transfer and the largest DP any read's own Smin implies.
	readLen, private := 0, 0
	for _, r := range reads {
		readLen = max(readLen, len(r))
		smin := minSeedLen(opt.MinSeedLen, len(r), opt.MaxErrors)
		private = max(private, seed.DPPeakMem(len(r), opt.MaxErrors, smin, p.selector))
	}
	gen := &generator{ix: sh.Index, selector: p.selector, params: params}
	return &mapper.Batch{
		Name:         p.name,
		PrivateBytes: int64(private),
		NewScratch:   func() any { return new(seed.Scratch) },
		Generate:     gen.generate,
		Text:         sh.Index.Text(),
		SliceStart:   sh.SliceStart, OwnStart: sh.OwnStart, OwnEnd: sh.OwnEnd,
		Reads: reads, Out: out,
		MaxErrors: opt.MaxErrors, Prefilter: opt.Prefilter,
		Policy:   opt.Policy(),
		InBytes:  int64((readLen + 3) / 4),
		OutBytes: outBytes(opt),
	}
}
