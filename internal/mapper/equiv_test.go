package mapper_test

// The mapper equivalence harness (DESIGN.md §15): configurations covering
// every pair of axis values over the seven mappers, each run at GOMAXPROCS
// 1 and 8 and held to eight properties against a brute-force DP oracle.

import (
	"bytes"
	"cmp"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/allpairs"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/eval"
	"repro/internal/fmindex"
	"repro/internal/mapper"
	"repro/internal/mapper/bwamem"
	"repro/internal/mapper/coral"
	"repro/internal/mapper/gem"
	"repro/internal/mapper/hobbes3"
	"repro/internal/mapper/razers3"
	"repro/internal/mapper/yara"
	"repro/internal/seed"
	"repro/internal/simulate"
)

// The axes of a configuration. Exec mode is not one: every configuration
// runs at GOMAXPROCS 1 and 8.
const (
	axMapper    = iota // REPUTE, CORAL, RazerS3, Hobbes3, Yara, BWA-MEM, GEM
	axDelta            // δ = 0, 2, 4, 8
	axBest             // all-mapper, best-mapper
	axPrefilter        // off, GateKeeper
	axCap              // MaxLocations binds (4), generous (400)
	axReads            // 100 bp with indels, 150 bp substitutions only, mixed 60–100 bp
	axRef              // Chr21Like, Chr21Like with a planted 40-copy repeat
	axBatch            // one Map call, each read alone
	nAxes
)

const (
	mREPUTE, mCORAL, mRazerS3, mHobbes3, mYara, mBWAMEM, mGEM, nMappers = 0, 1, 2, 3, 4, 5, 6, 7
	readsIndels, readsSubs, readsMixed                                  = 0, 1, 2
)

var space = allpairs.Space{Sizes: []int{nMappers, 4, 2, 2, 2, 3, 2, 2}}

type config [nAxes]int

// decodeConfig is the one decoder of configurations, shared by the
// all-pairs set and the fuzz target.
func decodeConfig(b []byte) config { return config(space.Decode(b)) }

func (c config) with(ax, v int) config { c[ax] = v; return c }

func (c config) options() mapper.Options {
	return mapper.Options{MaxErrors: []int{0, 2, 4, 8}[c[axDelta]], MaxLocations: []int{4, 400}[c[axCap]],
		Best: c[axBest] == 1, Prefilter: []string{mapper.PrefilterOff, mapper.PrefilterGateKeeper}[c[axPrefilter]]}
}

// pinned seeds the all-pairs set and the fuzz corpus: the lossless
// filters at δ = 8 on mixed lengths, where a gram sized for another read
// of the batch loses a 60 bp read or, on the repeat, adds a mapping.
var pinned = [][]byte{{mRazerS3, 3, 0, 0, 1, readsMixed, 0, 0}, {mHobbes3, 3, 0, 0, 0, readsMixed, 1, 0}}

// readSet is one workload: its reads, where they were sampled, and every
// oracle occurrence of each read within the largest δ, per strand.
type readSet struct {
	reads   [][]byte
	origins []simulate.Origin
	occs    [][2][]occ
}

// occ is a DP occurrence: a text column a match ends at, within dist edits.
type occ struct{ end, dist int }

// mapperWorld is what every configuration shares: the two references, the
// seven mappers over each, the three read sets sampled from each, and the
// serial runs already made.
type mapperWorld struct {
	refs    [2][]byte
	mappers [2][nMappers]mapper.Mapper
	sets    [2][3]readSet

	mu   sync.Mutex
	runs map[config]*outcome
}

// newMappers builds the seven mappers over ref, in axis order.
func newMappers(ref []byte) (ms [nMappers]mapper.Mapper, errs [nMappers]error) {
	host := cl.SystemOneHost()
	ms[mREPUTE], errs[mREPUTE] = core.New(ref, []*cl.Device{cl.SystemOneCPU()}, core.Config{})
	ms[mCORAL], errs[mCORAL] = coral.New(ref, []*cl.Device{cl.SystemOneCPU()}, nil, "")
	ms[mRazerS3], errs[mRazerS3] = razers3.New(ref, host, 9)
	ms[mHobbes3], errs[mHobbes3] = hobbes3.New(ref, host, 9)
	ms[mYara], errs[mYara] = yara.New(ref, host)
	ms[mBWAMEM], errs[mBWAMEM] = bwamem.New(ref, host)
	ms[mGEM], errs[mGEM] = gem.New(ref, host)
	return ms, errs
}

var sharedMapperWorld = sync.OnceValue(func() *mapperWorld {
	w := &mapperWorld{runs: map[config]*outcome{}}
	w.refs[0] = simulate.Reference(simulate.Chr21Like(10_000, 41))
	w.refs[1] = slices.Clone(w.refs[0])
	for k := range 40 { // a 120 bp motif every 230 bases
		copy(w.refs[1][800+230*k:], w.refs[0][400:520])
	}
	indels := simulate.ReadProfile{Length: 100, SubRate: 0.02, InsRate: 0.005, DelRate: 0.005}
	subs := simulate.ReadProfile{Length: 150, SubRate: 0.02}
	var wg sync.WaitGroup
	for f, ref := range w.refs {
		var errs [nMappers]error
		if w.mappers[f], errs = newMappers(ref); errors.Join(errs[:]...) != nil {
			panic(errs)
		}
		for s := range w.sets[f] {
			set := &w.sets[f][s]
			for i := range 22 {
				prof := []simulate.ReadProfile{indels, subs, simulate.ERR012100}[s]
				if s == readsMixed { // 100, 60, 70, 80, 90, 100, …, 60: the longest first, the shortest last
					prof.Length = 100 - 10*(4*i%5)
				}
				one, err := simulate.Reads(ref, 1, prof, int64(100*f+22*s+i))
				if err != nil {
					panic(err)
				}
				// A 60 bp read keeps no 9 bases in a row: at δ = 8 only a gram
				// filter sized for it, not for a longer read, finds it.
				for at := 4; prof.Length == 60 && at < 60; at += 8 {
					one.Reads[0][at], one.Origins[0].Edits = (one.Reads[0][at]+1)%4, one.Origins[0].Edits+1
				}
				set.reads, set.origins = append(set.reads, one.Reads[0]), append(set.origins, one.Origins[0])
			}
			set.occs = make([][2][]occ, len(set.reads))
			for r, read := range set.reads {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k, strand := range []byte{mapper.Forward, mapper.Reverse} {
						align.OccurrencesDP(pattern(read, strand), ref, 8, func(end, dist int) {
							set.occs[r][k] = append(set.occs[r][k], occ{end, dist})
						})
					}
				}()
			}
		}
	}
	wg.Wait()
	return w
})

func pattern(read []byte, strand byte) []byte {
	if strand == mapper.Reverse {
		return dna.ReverseComplement(read)
	}
	return read
}

// outcome is everything one run reports, summed over its Map calls.
type outcome struct {
	maps        [][]mapper.Mapping
	cost        cl.Cost
	sim, energy float64
}

// batch is what c maps: in one Map call, its read set three times over,
// 66 reads, so that the call spans two of the queue's 64-item work groups
// and GOMAXPROCS 8 runs them on two workers; read by read, the set once.
func (w *mapperWorld) batch(c config) [][]byte {
	reads := w.sets[c[axRef]][c[axReads]].reads
	if c[axBatch] == 1 {
		return reads
	}
	return slices.Concat(reads, reads, reads)
}

// run maps reads with c's mapper and options at GOMAXPROCS procs, in one
// Map call or, as c batches them, one call per read.
func (w *mapperWorld) run(t *testing.T, c config, procs int, reads [][]byte) *outcome {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	o, m, batch := &outcome{}, w.mappers[c[axRef]][c[axMapper]], len(reads)
	if c[axBatch] == 1 {
		batch = 1
	}
	for start := 0; start < len(reads); start += batch {
		res, err := m.Map(reads[start:min(start+batch, len(reads))], c.options())
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		o.maps = append(o.maps, res.Mappings...)
		o.cost.Add(res.Cost)
		o.sim, o.energy = o.sim+res.SimSeconds, o.energy+res.EnergyJ
	}
	return o
}

// serial is c's run at GOMAXPROCS 1, made once.
func (w *mapperWorld) serial(t *testing.T, c config) *outcome {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.runs[c] == nil {
		w.runs[c] = w.run(t, c, 1, w.batch(c))
	}
	return w.runs[c]
}

// premise computes, per read, the premise under which c's mapper class
// promises every oracle occurrence (the Optimal Seed Solver's pigeonhole
// guarantee: each location within δ shares an exact seed with the read):
//   - RazerS3 and Hobbes3, lossless filters: the MaxLocations cap cannot
//     bind, since each verified match ends at an oracle end within δ and
//     there are no more of those than the cap;
//   - REPUTE and CORAL: the selector's seeds locate no more than
//     MaxLocations candidates over both strands, so neither the per-strand
//     locate budget nor the verify cap truncates;
//   - Yara, substitution-only seeds: a read of the substitution-only set
//     whose approximate seeds stay inside yara's per-strand locate budget
//     (yara.LocateScale times the best-stratum policy's) and whose best
//     stratum fits that policy's report cap, min(MaxLocations,
//     mapper.BestStratumCap);
//   - GEM and BWA-MEM make no such promise.
func (w *mapperWorld) premise(c config, r, ends, bestEnds int) bool {
	opt, read := c.options(), w.sets[c[axRef]][c[axReads]].reads[r]
	δ, ix := opt.MaxErrors, w.mappers[c[axRef]][mREPUTE].(*core.Pipeline).Index() // the index Yara builds too
	located := func(strand byte) (n int) {
		p := pattern(read, strand)
		switch c[axMapper] {
		case mREPUTE, mCORAL:
			sel, err := []seed.Selector{seed.REPUTE{}, seed.CORAL{}}[c[axMapper]].Select(ix, p,
				seed.Params{Errors: δ, MinSeedLen: core.DefaultMinSeedLen(len(p), δ)})
			if err != nil {
				panic(err)
			}
			return sel.TotalCandidates
		}
		for s := range 3 { // yara's three pieces, each with δ/3 substitutions
			ix.RangeApprox(p[s*len(p)/3:(s+1)*len(p)/3], δ/3, func(h fmindex.ApproxHit) { n += h.Hi - h.Lo })
		}
		return n
	}
	switch c[axMapper] {
	case mRazerS3, mHobbes3:
		return ends <= opt.MaxLocations
	case mREPUTE, mCORAL:
		return located(mapper.Forward)+located(mapper.Reverse) <= opt.MaxLocations
	case mYara:
		pol := opt.Policy().BestStratum()
		return c[axReads] == readsSubs && bestEnds <= pol.MaxLoc &&
			max(located(mapper.Forward), located(mapper.Reverse)) <= yara.LocateScale*pol.Locate
	}
	return false
}

// tally counts a read's occurrences that keep holds: their match ends,
// and its sites, ends more than 2δ apart, each needing a mapping of its own.
func tally(occs [2][]occ, δ int, keep func(occ) bool) (ends, sites int) {
	for _, strand := range occs {
		last := math.MinInt / 2
		for _, o := range strand {
			if keep(o) {
				ends++
				if o.end-last > 2*δ {
					sites, last = sites+1, o.end
				}
			}
		}
	}
	return ends, sites
}

// oracle holds c's mappings to properties (1) soundness, (2) policy and
// (3) the oracle. It returns the reads outside c's class premise, the
// oracle occurrences checked, and the eligible planted origins a
// best-mapper without a premise found.
func (w *mapperWorld) oracle(t *testing.T, c config, maps [][]mapper.Mapping) (excluded, checked, found, eligible int) {
	opt, set, ref, mp := c.options(), w.sets[c[axRef]][c[axReads]], w.refs[c[axRef]], c[axMapper]
	δ, stratum := opt.MaxErrors, opt.Best || mp == mYara || mp == mBWAMEM || mp == mGEM
	for r, read := range set.reads {
		ms, n, occs := maps[r], len(read), set.occs[r]
		dmin := δ + 1
		for _, o := range slices.Concat(occs[0], occs[1]) {
			dmin = min(dmin, o.dist)
		}
		ends, sites := tally(occs, δ, func(o occ) bool { return o.dist <= δ })
		bestEnds, bestSites := tally(occs, δ, func(o occ) bool { return o.dist == dmin })
		// (1) Sorted by (Pos, Strand) without a repeated pair, within the
		// cap, and each realigns from Pos within its Dist ≤ δ: δ+1
		// sentinels before both the pattern and the text anchor the
		// alignment at Pos, as skipping them costs δ+1.
		anchor := bytes.Repeat([]byte{4}, δ+1)
		for i, m := range ms {
			hi := min(int(m.Pos)+n+δ, len(ref))
			if i > 0 && cmp.Or(cmp.Compare(ms[i-1].Pos, m.Pos), cmp.Compare(ms[i-1].Strand, m.Strand)) >= 0 ||
				int(m.Dist) > δ || i >= opt.MaxLocations {
				t.Errorf("%v: read %d: %v unsorted, repeated, past δ or over the cap", c, r, ms)
			}
			p, text := slices.Concat(anchor, pattern(read, m.Strand)), slices.Concat(anchor, ref[m.Pos:hi])
			if _, d := align.DistanceDP(p, text, int(m.Dist)); d < 0 {
				t.Errorf("%v: read %d: %+v does not realign within its distance", c, r, m)
			}
		}
		// (2) One stratum for a best-mapper, one mapping for BWA-MEM, and
		// a full report where the all-mappers' binding cap must be met.
		if stratum && slices.ContainsFunc(ms, func(m mapper.Mapping) bool { return m.Dist != ms[0].Dist }) ||
			mp == mBWAMEM && len(ms) > 1 ||
			(mp == mRazerS3 || mp == mHobbes3) && !opt.Best && sites >= opt.MaxLocations && len(ms) != opt.MaxLocations {
			t.Errorf("%v: read %d: %v breaks the report policy (%d oracle sites)", c, r, ms, sites)
		}
		// (3) Within the premise, every occurrence (at the minimum distance,
		// for a best stratum) has a mapping on its strand within ±δ.
		if mp == mGEM || mp == mBWAMEM {
			if o := set.origins[r]; int(o.Edits) <= δ && bestSites == 1 {
				eligible++
				if slices.ContainsFunc(ms, func(m mapper.Mapping) bool {
					return m.Strand == o.Strand && max(m.Pos-o.Pos, o.Pos-m.Pos) <= int32(δ)
				}) {
					found++
				}
			}
			continue
		}
		if !w.premise(c, r, ends, bestEnds) {
			excluded++
			continue
		}
		for s, strand := range []byte{mapper.Forward, mapper.Reverse} {
			for _, o := range occs[s] {
				if o.dist > δ || stratum && o.dist != dmin {
					continue
				}
				checked++
				if !slices.ContainsFunc(ms, func(m mapper.Mapping) bool {
					return m.Strand == strand && int(m.Pos) >= o.end-n-δ && int(m.Pos) <= o.end-n+δ && (!stratum || int(m.Dist) == dmin)
				}) {
					t.Errorf("%v: read %d: occurrence ending at %d (%c, %d edits) not in %v", c, r, o.end, strand, o.dist, ms)
				}
			}
		}
	}
	return excluded, checked, found, eligible
}

// check runs c at GOMAXPROCS 1 and 8 and holds it to the eight properties
// (8, the edge cases, once per test). It returns oracle's counts.
func (w *mapperWorld) check(t *testing.T, c config) (excluded, checked, found, eligible int) {
	reads := w.batch(c)
	// (4) BWA-MEM has no verification stage to filter for and says so.
	if c[axMapper] == mBWAMEM && c[axPrefilter] == 1 {
		if _, err := w.mappers[c[axRef]][mBWAMEM].Map(reads, c.options()); err == nil {
			t.Errorf("%v: BWA-MEM accepted the prefilter", c)
		}
		c = c.with(axPrefilter, 0)
	}
	o := w.serial(t, c)
	// (5) Exec mode; (6) a read maps alone as in a batch, in both orders.
	if auto := w.run(t, c, 8, reads); !reflect.DeepEqual(o, auto) {
		_, r := eval.IdenticalMappings(o.maps, auto.maps)
		t.Errorf("%v: GOMAXPROCS 1 and 8 differ from read %d, cost %+v and %+v", c, r, o.cost, auto.cost)
	}
	alone, batches := w.serial(t, c.with(axBatch, 1)), []*outcome{w.serial(t, c.with(axBatch, 0))}
	if c[axReads] == readsMixed { // reversed, a 60 bp read leads the batch
		back := slices.Clone(w.batch(c.with(axBatch, 0)))
		slices.Reverse(back)
		batches = append(batches, w.run(t, c.with(axBatch, 0), 1, back))
		slices.Reverse(batches[1].maps)
	}
	n := len(alone.maps)
	for k, b := range batches {
		for at := 0; at < len(b.maps); at += n {
			if ok, r := eval.IdenticalMappings(alone.maps, b.maps[at:at+n]); !ok {
				t.Errorf("%v: read %d maps to %v alone, to %v in batch %d", c, r, alone.maps[r], b.maps[at+r], k)
			}
		}
	}
	// (4) The filter changes no mapping, candidate or verified match,
	// never adds verify work, and accounts for each candidate at most once.
	f, off := o.cost, w.serial(t, c.with(axPrefilter, 0))
	if c[axPrefilter] == 1 {
		if err := eval.PrefilterGate(off.maps, o.maps); err != nil || f.Candidates != off.cost.Candidates ||
			f.Verified != off.cost.Verified || (f.FilterWords > 0) != (f.Candidates > 0) ||
			f.Filtered+f.FalseAccepts+f.Verified > f.Candidates || f.VerifyWords > off.cost.VerifyWords {
			t.Errorf("%v: filtered cost %+v, unfiltered %+v (%v)", c, f, off.cost, err)
		}
	} else if f.FilterWords != 0 || f.Filtered != 0 || f.FalseAccepts != 0 {
		t.Errorf("%v: filter counters %+v without the filter", c, f)
	}
	// (7) Accounting.
	mapped := slices.ContainsFunc(o.maps, func(ms []mapper.Mapping) bool { return len(ms) > 0 })
	if f.Items != int64(len(reads)) || o.sim <= 0 || o.energy <= 0 || mapped && f.Candidates == 0 {
		t.Errorf("%v: cost %+v (%v s, %v J) for %d reads", c, f, o.sim, o.energy, len(reads))
	}
	return w.oracle(t, c, o.maps[:n])
}

// TestMapperEquivalence runs the all-pairs set, failing if any pair of
// axis values is missing from it. Reads outside their mapper's premise
// are counted and logged, not generated away. GEM and BWA-MEM, which have
// none, must find 70 % and 85 % of the planted origins within δ of reads
// whose best stratum is one site (where copies tie, any is a best).
func TestMapperEquivalence(t *testing.T) {
	w := sharedMapperWorld()
	set := space.Draw(1, pinned...)
	if missing := space.Uncovered(set); len(missing) > 0 {
		t.Fatalf("no configuration holds the axis-value pairs %v", missing)
	}
	// (8) Every constructor refuses an empty reference; every mapper maps
	// an empty read set to an empty result.
	if _, errs := newMappers(nil); slices.Contains(errs[:], nil) {
		t.Errorf("an empty reference was accepted: %v", errs)
	}
	for _, m := range w.mappers[0] {
		if res, err := m.Map(nil, mapper.Options{MaxErrors: 2}); err != nil || len(res.Mappings) != 0 {
			t.Errorf("%s: an empty read set gave %v, %v", m.Name(), res, err)
		}
	}
	excluded, checked := 0, 0
	var found, eligible [nMappers]int
	for _, d := range set {
		c := config(d)
		e, k, f, n := w.check(t, c)
		excluded, checked = excluded+e, checked+k
		found[c[axMapper]], eligible[c[axMapper]] = found[c[axMapper]]+f, eligible[c[axMapper]]+n
	}
	t.Logf("%d configurations; %d reads outside their premise, %d oracle occurrences checked; GEM found %d of %d origins, BWA-MEM %d of %d",
		len(set), excluded, checked, found[mGEM], eligible[mGEM], found[mBWAMEM], eligible[mBWAMEM])
	if excluded == 0 || checked == 0 || eligible[mGEM] == 0 || eligible[mBWAMEM] == 0 ||
		found[mGEM] < eligible[mGEM]*70/100 || found[mBWAMEM] < eligible[mBWAMEM]*85/100 {
		t.Error("no read fell outside a premise, the oracle checked nothing, or a best-mapper missed its floor")
	}
}

// TestRepeatWindowsShareVerdicts shows that window classes act on the
// planted-repeat reference: REPUTE's seeds for the read sets at δ 2 are
// located and verified, and some windows take the verdict of an earlier
// identical window: the copies of the planted motif.
func TestRepeatWindowsShareVerdicts(t *testing.T) {
	w := sharedMapperWorld()
	const δ = 2
	var shared [2]int
	for f, ref := range w.refs {
		ix, text := w.mappers[f][mREPUTE].(*core.Pipeline).Index(), dna.Pack(ref)
		var vs mapper.VerifyState
		for _, set := range w.sets[f] {
			for _, read := range set.reads {
				var cands []mapper.Candidate
				for _, strand := range []byte{mapper.Forward, mapper.Reverse} {
					p := pattern(read, strand)
					sel, err := seed.REPUTE{}.Select(ix, p, seed.Params{Errors: δ, MinSeedLen: core.DefaultMinSeedLen(len(p), δ)})
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range sel.Seeds {
						for _, pos := range ix.Locate(s.Lo, s.Hi, 0, nil) {
							cands = append(cands, mapper.Candidate{Pos: pos - int32(s.Start), Strand: strand})
						}
					}
				}
				vs.Verify(text, read, mapper.DedupCandidates(cands, δ), δ, 0)
				shared[f] += vs.SharedWindows()
			}
		}
	}
	t.Logf("windows sharing an earlier window's verdict: %d without the repeat, %d with it", shared[0], shared[1])
	if shared[1] == 0 {
		t.Error("no window on the planted-repeat reference took an earlier identical window's verdict")
	}
}

// FuzzMapperEquivalence decodes a configuration from the fuzz input with
// the all-pairs set's decoder and holds it to the same properties.
func FuzzMapperEquivalence(f *testing.F) {
	for _, b := range pinned {
		f.Add(b)
	}
	w := sharedMapperWorld()
	f.Fuzz(func(t *testing.T, b []byte) { w.check(t, decodeConfig(b)) })
}
