package main

// The layer replay. Inside Pipeline.Map the harness cannot see, so the
// traced pass re-runs the mapping kernel's call sequence single-threaded
// through the layers' exported functions — Selector.Select per strand,
// Index.Locate per seed, mapper.DedupCandidates, filter.State.Prepare and
// Accept, VerifyState.Verify, mapper.Finalize, mapper.MergeShards — with
// a span around each. The replay is only trusted when its mappings are
// identical to Map's and its operation counts equal Result.Cost.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/eval"
	"repro/internal/filter"
	"repro/internal/mapper"
	"repro/internal/seed"
)

// Span names of the replay. Layer spans are the calls into a layer;
// "batch" and "read" are the replay's own scaffolding.
const (
	spanBatch    = "batch"
	spanRead     = "read"
	spanSelect   = "seed.select"
	spanLocate   = "fmindex.locate"
	spanDedup    = "mapper.dedup"
	spanFilter   = "filter.accept"
	spanVerify   = "mapper.verify"
	spanFinalize = "mapper.finalize"
	spanMerge    = "mapper.merge"
)

var layerSpans = []string{spanSelect, spanLocate, spanDedup, spanFilter, spanVerify, spanFinalize, spanMerge}

// replayer holds one worker's scratch (core's kernel state) and the
// counts the replay accumulates.
type replayer struct {
	shards   []core.Shard
	sharded  bool
	selector seed.Selector
	opt      mapper.Options

	vs    mapper.VerifyState
	fs    filter.State
	rev   []byte
	cands []mapper.Candidate
	kept  []mapper.Candidate
	locs  []int32
	win   []byte

	// cost mirrors the fields the kernels charge; located counts
	// candidates before dedup, accepted those the prefilter passed on.
	cost     cl.Cost
	located  int64
	accepted int64
	reads    int

	// keepSeeds collects the non-empty seeds selected, for the FM
	// extension probe.
	keepSeeds bool
	seeds     []probeSeed
}

// probeSeed is one selected seed: its bases and the shard it was
// searched in.
type probeSeed struct {
	shard int
	bases []byte
}

func newReplayer(w *workload, t *target) *replayer {
	return &replayer{shards: shardsOf(t.file), sharded: t.file.Meta.Sharded(),
		selector: w.selector, opt: w.opt.WithDefaults()}
}

// mapBatch replays one Map call and returns the mappings it would
// report.
func (rp *replayer) mapBatch(rec *recorder, id int, reads [][]byte) ([][]mapper.Mapping, error) {
	rec.setBatch(id)
	rec.begin(spanBatch)
	defer rec.end()
	params := seed.Params{Errors: rp.opt.MaxErrors, MinSeedLen: rp.opt.MinSeedLen, MaxSeedFreq: rp.opt.MaxSeedFreq}
	if params.MinSeedLen <= 0 {
		params.MinSeedLen = core.DefaultMinSeedLen(len(reads[0]), rp.opt.MaxErrors)
	}
	rp.reads += len(reads)
	partials := make([][][]mapper.Mapping, len(rp.shards))
	for s := range rp.shards {
		partials[s] = make([][]mapper.Mapping, len(reads))
		for r, read := range reads {
			rec.begin(spanRead)
			out, err := rp.mapRead(rec, s, read, params)
			rec.end()
			if err != nil {
				return nil, err
			}
			partials[s][r] = out
		}
	}
	if !rp.sharded {
		return partials[0], nil
	}
	out := make([][]mapper.Mapping, len(reads))
	parts := make([][]mapper.Mapping, len(partials))
	for r := range reads {
		for s := range partials {
			parts[s] = partials[s][r]
		}
		rec.begin(spanMerge)
		out[r] = mapper.MergeShards(parts, rp.opt.Best, rp.opt.MaxLocations)
		rec.end()
	}
	return out, nil
}

// mapRead is one work item: the body of core's map kernel (or of its
// prefilter and verify kernels back to back) against one shard.
func (rp *replayer) mapRead(rec *recorder, shard int, read []byte, params seed.Params) ([]mapper.Mapping, error) {
	sh := &rp.shards[shard]
	ix := sh.Index
	maxErr := rp.opt.MaxErrors
	maxCand := 2 * rp.opt.MaxLocations
	locSteps := ix.LocateSteps()
	rp.cands = rp.cands[:0]
	if cap(rp.rev) < len(read) {
		rp.rev = make([]byte, len(read))
	}
	rp.rev = rp.rev[:len(read)]
	for _, strand := range [2]byte{mapper.Forward, mapper.Reverse} {
		pattern := read
		if strand == mapper.Reverse {
			dna.ReverseComplementInto(rp.rev, read)
			pattern = rp.rev
		}
		rec.begin(spanSelect)
		sel, err := rp.selector.Select(ix, pattern, params)
		rec.end()
		if err != nil {
			return nil, err
		}
		rp.cost.FMSteps += int64(sel.FMSteps)
		rp.cost.DPCells += int64(sel.DPCells)
		rec.begin(spanLocate)
		remaining := maxCand
		for _, s := range sel.Seeds {
			if remaining <= 0 {
				break
			}
			c := s.Count()
			if c == 0 {
				continue
			}
			if c > remaining {
				c = remaining
			}
			rp.locs = ix.Locate(s.Lo, s.Lo+c, 0, rp.locs[:0])
			rp.cost.LocateSteps += int64(float64(c) * (1 + locSteps))
			for _, pos := range rp.locs {
				rp.cands = append(rp.cands, mapper.Candidate{Pos: pos - int32(s.Start), Strand: strand})
			}
			remaining -= c
		}
		rec.end()
		if rp.keepSeeds {
			for _, s := range sel.Seeds {
				if s.Count() > 0 {
					rp.seeds = append(rp.seeds, probeSeed{shard: shard,
						bases: append([]byte(nil), pattern[s.Start:s.End]...)})
				}
			}
		}
	}
	rp.located += int64(len(rp.cands))

	rec.begin(spanDedup)
	dd := mapper.DedupCandidates(rp.cands, int32(maxErr))
	rec.end()
	rp.cost.Candidates += int64(len(dd))

	text := ix.Text()
	prefilter := rp.opt.Prefilter == mapper.PrefilterGateKeeper
	if prefilter {
		rec.begin(spanFilter)
		dd = rp.prefilter(text, read, dd)
		rec.end()
		rp.accepted += int64(len(dd))
	}

	rec.begin(spanVerify)
	ms, vc := rp.vs.Verify(text, read, dd, maxErr, rp.opt.MaxLocations)
	rec.end()
	if prefilter {
		rp.cost.FalseAccepts += int64(len(dd)) - vc.Matched
	}
	if rp.sharded {
		// Globalize and owner-filter in place, as the shard kernels do.
		n := 0
		for _, m := range ms {
			g := int64(m.Pos) + sh.SliceStart
			if g < sh.OwnStart || g >= sh.OwnEnd {
				continue
			}
			m.Pos = int32(g)
			ms[n] = m
			n++
		}
		ms = ms[:n]
	}
	rp.cost.VerifyWords += vc.VerifyWords
	rp.cost.Verified += int64(len(ms))

	rec.begin(spanFinalize)
	out := mapper.Finalize(ms, rp.opt.Best, rp.opt.MaxLocations)
	rec.end()
	return out, nil
}

// prefilter runs the shifted-Hamming filter over each candidate's
// verification window, exactly as core's prefilter kernel does, and
// returns the survivors.
func (rp *replayer) prefilter(text dna.PackedSeq, read []byte, dd []mapper.Candidate) []mapper.Candidate {
	maxErr, n := rp.opt.MaxErrors, len(read)
	rp.kept = rp.kept[:0]
	prepared := byte(0xFF)
	for _, c := range dd {
		lo := max(int(c.Pos)-maxErr, 0)
		hi := min(int(c.Pos)+n+maxErr, text.Len())
		if hi-lo < n-maxErr {
			rp.cost.Filtered++
			continue
		}
		if c.Strand != prepared {
			pattern := read
			if c.Strand == mapper.Reverse {
				pattern = rp.rev
			}
			rp.cost.FilterWords += rp.fs.Prepare(pattern, maxErr)
			prepared = c.Strand
		}
		if cap(rp.win) < hi-lo {
			rp.win = make([]byte, hi-lo)
		}
		ok, fw := rp.fs.Accept(text.SliceInto(rp.win, lo, hi))
		rp.cost.FilterWords += fw
		if !ok {
			rp.cost.Filtered++
			continue
		}
		rp.kept = append(rp.kept, c)
	}
	return rp.kept
}

// checkAgainst verifies the replay against what Pipeline.Map returned
// for the same batches.
func (rp *replayer) checkAgainst(got, want [][]mapper.Mapping, cost cl.Cost) error {
	if same, at := eval.IdenticalMappings(got, want); !same {
		return fmt.Errorf("replay mappings differ from Map's at read %d", at)
	}
	type pair struct {
		name      string
		got, want int64
	}
	for _, c := range []pair{
		{"FMSteps", rp.cost.FMSteps, cost.FMSteps},
		{"DPCells", rp.cost.DPCells, cost.DPCells},
		{"LocateSteps", rp.cost.LocateSteps, cost.LocateSteps},
		{"VerifyWords", rp.cost.VerifyWords, cost.VerifyWords},
		{"FilterWords", rp.cost.FilterWords, cost.FilterWords},
		{"Candidates", rp.cost.Candidates, cost.Candidates},
		{"Filtered", rp.cost.Filtered, cost.Filtered},
		{"Verified", rp.cost.Verified, cost.Verified},
		{"FalseAccepts", rp.cost.FalseAccepts, cost.FalseAccepts},
	} {
		if c.got != c.want {
			return fmt.Errorf("replay %s = %d, Result.Cost has %d", c.name, c.got, c.want)
		}
	}
	return nil
}

// mapSum accumulates Map results over batches.
type mapSum struct {
	mappings [][]mapper.Mapping
	cost     cl.Cost
	busyS    float64 // simulated device-busy seconds, all devices
	wall     time.Duration
	allocs   uint64 // heap allocations inside Map
}

func (m *mapSum) mapBatch(p *core.Pipeline, opt mapper.Options, reads [][]byte) error {
	m0 := mallocs()
	t0 := time.Now()
	r, err := p.Map(reads, opt)
	m.wall += time.Since(t0)
	m.allocs += mallocs() - m0
	if err != nil {
		return err
	}
	m.mappings = append(m.mappings, r.Mappings...)
	m.cost.Add(r.Cost)
	// Device order, so the float sum does not depend on map iteration.
	devs := make([]string, 0, len(r.DeviceSeconds))
	for dev := range r.DeviceSeconds {
		devs = append(devs, dev)
	}
	sort.Strings(devs)
	for _, dev := range devs {
		m.busyS += r.DeviceSeconds[dev]
	}
	return nil
}

// tracedKernel is the per-layer pass every workload shares: replay the
// first batches with spans, check the replay against Map, and derive the
// fmindex, seed, mapper, align, filter, core and cl metrics.
func (e *env) tracedKernel(w *workload, t *target, rs *readSet, res *workloadResult, rec *recorder) error {
	nb := min(e.scale.replayBatches, len(rs.reads)/w.batch)
	batches := make([][][]byte, nb)
	for i := range batches {
		batches[i] = rs.reads[i*w.batch : (i+1)*w.batch]
	}

	// One device: with several, Map runs them on concurrent goroutines
	// even under serial execution, and the single-threaded replay could
	// not be compared with its wall. Mappings and costs do not depend on
	// the device count.
	serialP, err := newPipeline(t.file, w, 1, cl.Serial)
	if err != nil {
		return err
	}
	parallelP, err := newPipeline(t.file, w, w.devices, cl.Auto)
	if err != nil {
		return err
	}
	// Four passes over the same batches, interleaved batch by batch so a
	// slow drift of the machine hits all of them alike: Map with serial
	// execution (the wall the replay must explain), the replay with spans,
	// the replay with recording off (their ratio is the tracing overhead),
	// and Map with default execution.
	var serial, parallel mapSum
	rp, rpOff := newReplayer(w, t), newReplayer(w, t)
	if _, err := serialP.Map(rs.warmup, w.opt); err != nil {
		return err
	}
	if _, err := newReplayer(w, t).mapBatch(nil, 0, rs.warmup); err != nil {
		return err
	}
	var got [][]mapper.Mapping
	var wallOn, wallOff time.Duration
	for i, b := range batches {
		if err := serial.mapBatch(serialP, w.opt, b); err != nil {
			return err
		}
		t0 := time.Now()
		ms, err := rp.mapBatch(rec, i, b)
		wallOn += time.Since(t0)
		if err != nil {
			return err
		}
		got = append(got, ms...)
		t0 = time.Now()
		if _, err := rpOff.mapBatch(nil, i, b); err != nil {
			return err
		}
		wallOff += time.Since(t0)
		if err := parallel.mapBatch(parallelP, w.opt, b); err != nil {
			return err
		}
	}
	res.Attempted += nb
	if err := rp.checkAgainst(got, serial.mappings, serial.cost); err != nil {
		res.fail(nb, "%v", err)
	}
	// A fifth replay, on the first two batches only since every span
	// boundary stops the world to read the allocation counter, attributes
	// heap allocations to layers and keeps the seeds for the FM probe.
	allocRec := newAllocRecorder()
	arp := newReplayer(w, t)
	arp.keepSeeds = true
	for i, b := range batches[:min(2, nb)] {
		if _, err := arp.mapBatch(allocRec, i, b); err != nil {
			return err
		}
	}
	sum, serialWall, parWall := serial, serial.wall, parallel.wall

	self, _ := selfTimes(rec.spans)
	layerNs := 0.0
	for _, name := range layerSpans {
		layerNs += float64(self[name])
	}
	reads := float64(rp.reads)
	perRead := func(name string) float64 { return float64(self[name]) / reads }
	ratio := func(a, b int64) (float64, bool) { return float64(a) / float64(b), b != 0 }
	pl := res.PerLayer
	res.Samples["replay_reads"] = rp.reads
	res.Samples["replay_batches"] = nb

	pl["fmindex.steps_per_read"] = float64(sum.cost.FMSteps) / reads
	pl["fmindex.locate_steps_per_read"] = float64(sum.cost.LocateSteps) / reads
	if rp.located > 0 {
		pl["fmindex.locate_ns_per_pos"] = float64(self[spanLocate]) / float64(rp.located)
	}
	if ns, steps := extendProbe(rp.shards, arp.seeds); steps > 0 {
		pl["fmindex.extend_ns_per_step"] = ns / float64(steps)
		res.Samples["extend_steps"] = steps
	}
	pl["seed.select_ns_per_read"] = perRead(spanSelect)
	pl["seed.dp_cells_per_read"] = float64(sum.cost.DPCells) / reads
	pl["seed.candidates_per_read"] = float64(rp.located) / reads
	pl["seed.allocs_per_read"] = float64(allocRec.allocs[spanSelect]) / float64(arp.reads)
	pl["mapper.dedup_ns_per_read"] = perRead(spanDedup)
	if v, ok := ratio(sum.cost.Candidates, rp.located); ok {
		pl["mapper.dedup_kept_ratio"] = v
	}
	pl["mapper.verify_ns_per_read"] = perRead(spanVerify)
	if v, ok := ratio(sum.cost.Verified, sum.cost.Candidates); ok {
		pl["mapper.verified_ratio"] = v
	}
	pl["mapper.finalize_ns_per_read"] = perRead(spanFinalize)
	if rp.sharded {
		pl["mapper.merge_ns_per_read"] = perRead(spanMerge)
	}
	pl["mapper.allocs_per_read"] = float64(allocRec.allocs[spanDedup]+allocRec.allocs[spanVerify]+
		allocRec.allocs[spanFinalize]+allocRec.allocs[spanMerge]) / float64(arp.reads)
	pl["align.verify_words_per_read"] = float64(sum.cost.VerifyWords) / reads
	if sum.cost.VerifyWords > 0 {
		pl["align.ns_per_word"] = float64(self[spanVerify]) / float64(sum.cost.VerifyWords)
	}
	if sum.cost.FilterWords > 0 {
		pl["filter.ns_per_word"] = float64(self[spanFilter]) / float64(sum.cost.FilterWords)
		pl["filter.words_per_read"] = float64(sum.cost.FilterWords) / reads
		pl["filter.rejected_ratio"] = float64(sum.cost.Filtered) / float64(sum.cost.Candidates)
		if rp.accepted > 0 {
			pl["filter.false_accept_ratio"] = float64(sum.cost.FalseAccepts) / float64(rp.accepted)
		}
	}
	pl["core.map_serial_ns_per_read"] = float64(serialWall) / reads
	pl["core.replay_coverage"] = layerNs / float64(serialWall)
	pl["core.overhead_ns_per_read"] = (float64(serialWall) - layerNs) / reads
	pl["core.parallel_speedup"] = float64(serialWall) / float64(parWall)
	pl["core.allocs_per_read"] = float64(serial.allocs) / reads
	pl["cl.ops_per_read"] = float64(sum.cost.Ops()) / reads
	pl["cl.bytes_per_read"] = float64(sum.cost.Bytes) / reads
	pl["cl.device_busy_s"] = parallel.busyS
	pl["trace.overhead_ratio"] = float64(wallOn) / float64(wallOff)
	return nil
}

// extendProbe times Index.Range over the seeds the selector actually
// chose — FM backward extension with the access pattern of real seeds —
// and returns the nanoseconds spent and the extension steps taken. Every
// probed seed occurs in its shard, so Range runs its full length.
func extendProbe(shards []core.Shard, seeds []probeSeed) (ns float64, steps int) {
	found := 0
	t0 := time.Now()
	for _, s := range seeds {
		lo, hi := shards[s.shard].Index.Range(s.bases)
		if hi > lo {
			found++
		}
		steps += len(s.bases)
	}
	ns = float64(time.Since(t0))
	if found != len(seeds) {
		return 0, 0 // the probe's premise failed; report nothing
	}
	return ns, steps
}
