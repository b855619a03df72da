package mapper

import (
	"repro/internal/cl"
	"repro/internal/dna"
	"repro/internal/filter"
	"repro/internal/fmindex"
)

// Generator is the one thing mappers differ in as code: how seeds are
// placed. It appends one strand's candidates for pattern (the read, or
// its reverse complement) to st.Cands and charges the search work it did
// (FMSteps, DPCells, HashProbes, LocateSteps) to cost. It runs once per
// strand per work item, so it allocates only into st (Scratch included).
type Generator func(st *State, pattern []byte, strand byte, cost *cl.Cost)

// Policy is a mapper's first-n rule: how many candidates it locates,
// verifies and reports. Every cap takes the first n in a stated order,
// as a kernel filling static output slots must (DESIGN.md §4).
type Policy struct {
	// Locate is the number of suffix-array rows located per strand
	// (0 = no cap), enforced by State.Locate. Rows are taken in the
	// order the generator offers its seeds, and within a seed in SA
	// order.
	Locate int
	// VerifyCap is the first-n cap on verified matches, applied in
	// position order before the ownership filter (0 = none).
	VerifyCap int
	// BestOnly keeps only the lowest edit-distance stratum.
	BestOnly bool
	// MaxLoc caps the final report (0 = none).
	MaxLoc int
}

// BestStratumCap bounds the co-optimal locations a best-stratum mapper
// reports per read, modelling the output limits of GEM
// (best+subdominant) and Yara (strata count).
const BestStratumCap = 5

// BestStratum returns p for a mapper that verifies every located
// candidate and reports only the lowest stratum, at most BestStratumCap.
func (p Policy) BestStratum() Policy {
	return Policy{Locate: p.Locate, BestOnly: true, MaxLoc: min(p.MaxLoc, BestStratumCap)}
}

// State is one host worker's private memory for the mapping kernels: the
// candidate list generators append to, their own scratch, and the
// reverse-complement, locate, verifier and pre-alignment filter buffers
// of the shared stages. Keeping all of it here — not captured by a kernel
// closure — is what lets the work-group scheduler run work items on
// several workers at once.
type State struct {
	// Cands collects the work item's candidates in arrival order.
	Cands []Candidate
	// Scratch is the generator's own worker-private memory, built by
	// Batch.NewScratch.
	Scratch any

	// cost is the current work item's charge. It lives here because a
	// pointer to it reaches the generator through a function value, which
	// would move a kernel-body local to the heap once per work item.
	cost cl.Cost
	vs   VerifyState
	rev  []byte
	locs []int32
	fs   filter.State // prefilter scratch: pattern and window planes, match masks
	// budget is the kernel's Policy.Locate; left is what the current
	// strand has not yet located of it.
	budget, left int
}

// Generate runs gen over both strands of read — the read itself, then
// its reverse complement, each with a fresh locate budget — and returns
// the candidates it appended.
//
//repute:hotpath
func (st *State) Generate(gen Generator, read []byte, cost *cl.Cost) []Candidate {
	st.Cands = st.Cands[:0]
	st.left = st.budget
	gen(st, read, Forward, cost)
	if cap(st.rev) < len(read) {
		st.rev = make([]byte, len(read))
	}
	st.rev = st.rev[:len(read)]
	dna.ReverseComplementInto(st.rev, read)
	st.left = st.budget
	gen(st, st.rev, Reverse, cost)
	return st.Cands
}

// Pattern returns what a candidate on strand is compared against: read,
// or the reverse complement the last Generate(…, read, …) left in st.
func (st *State) Pattern(read []byte, strand byte) []byte {
	if strand == Reverse {
		return st.rev
	}
	return read
}

// Locate resolves the lowest suffix-array rows of [lo, hi) of ix that
// the strand's locate budget has left, appends each as the candidate
// read start it implies for a seed at read offset off, and charges the
// locate work. An empty or inverted interval takes nothing.
//
//repute:hotpath
func (st *State) Locate(ix *fmindex.Index, lo, hi, off int, strand byte, cost *cl.Cost) {
	c := hi - lo
	if st.budget > 0 {
		c = min(c, st.left)
	}
	if c <= 0 {
		return
	}
	st.left -= c
	st.locs = ix.Locate(lo, lo+c, 0, st.locs[:0])
	cost.LocateSteps += int64(float64(c) * (1 + ix.LocateSteps()))
	for _, pos := range st.locs {
		st.Cands = append(st.Cands, Candidate{Pos: pos - int32(off), Strand: strand})
	}
}

// Exhausted reports whether the strand's locate budget is spent, so
// that Locate would take no further row.
func (st *State) Exhausted() bool { return st.budget > 0 && st.left <= 0 }

// Batch is the kernel builder for one batch of reads against one
// reference text: a mapper described as data plus one Generator. One batch
// is one kernel, and a work item's life is the stages seed (generate per
// strand, dedup) → [filter] → verify (Myers, ownership filter, finalize).
// The filter accepts a superset of the verifiable windows, so mappings are
// byte-identical whether or not it runs; the equivalence and oracle tests
// pin exactly that.
type Batch struct {
	// Name is the kernel name stem: the launch is Name-map.
	Name string
	// PrivateBytes is the kernel's PrivateBytesPerItem.
	PrivateBytes int64
	// NewScratch builds State.Scratch for one worker; nil for none.
	NewScratch func() any
	Generate   Generator

	// Text is the reference slice the candidates index; it starts at
	// global position SliceStart, and only matches starting in
	// [OwnStart, OwnEnd) are reported.
	Text                         dna.PackedSeq
	SliceStart, OwnStart, OwnEnd int64

	Reads     [][]byte
	Out       [][]Mapping // one fixed slot per read
	MaxErrors int
	Prefilter string
	Policy    Policy

	// InBytes and OutBytes are the per-read sizes of the static read and
	// output buffers, which are also the host-transfer bytes per work
	// item; a host mapper has neither.
	InBytes, OutBytes int64
}

// Fused returns the batch's kernel with item as the work item: it runs
// over every read and what it returns is stored in the read's output
// slot. item charges its own work to cost; the fixed per-item overhead and
// transfer are charged here.
func (b *Batch) Fused(item func(st *State, read []byte, cost *cl.Cost) []Mapping) *cl.Kernel {
	return &cl.Kernel{
		Name:                b.Name + "-map",
		PrivateBytesPerItem: b.PrivateBytes,
		NewState: func() any {
			st := &State{budget: b.Policy.Locate}
			if b.NewScratch != nil {
				st.Scratch = b.NewScratch()
			}
			return st
		},
		Body: func(wi *cl.WorkItem, state any) {
			st := state.(*State)
			st.cost = cl.Cost{Items: 1, Bytes: b.InBytes + b.OutBytes}
			b.Out[wi.Global] = item(st, b.Reads[wi.Global], &st.cost)
			wi.Charge(st.cost)
		},
	}
}

// Kernel returns the batch's kernel running the shared stages.
func (b *Batch) Kernel() *cl.Kernel { return b.Fused(b.mapRead) }

// mapRead is the shared work item: every stage back to back.
//
//repute:hotpath
func (b *Batch) mapRead(st *State, read []byte, cost *cl.Cost) []Mapping {
	cands := b.seed(st, read, cost)
	st.vs.classes.assign(b.Text, len(read), b.MaxErrors, cands)
	if b.Prefilter == PrefilterGateKeeper {
		cands = b.filter(st, read, cands, cost)
	}
	return b.verify(st, read, cands, cost)
}

// seed generates both strands' candidates and dedups them. On return st
// holds the read's reverse complement for the later stages.
func (b *Batch) seed(st *State, read []byte, cost *cl.Cost) []Candidate {
	dd := DedupCandidates(st.Generate(b.Generate, read, cost), int32(b.MaxErrors))
	cost.Candidates = int64(len(dd))
	return dd
}

// filter runs the pre-alignment filter (internal/filter) over each
// candidate's verification window — GateKeeper's amended shifted masks
// over the 4δ+1 diagonals Verify can reach, then a SneakySnake edit
// lower bound on the windows that pass — and compacts the survivors in
// place. It never drops a window Verify would accept. Like Verify, it
// decides each window class once (windowClasses, assigned to cands by
// the caller) and charges every member the words its window's decision
// took. Each survivor's class is compacted with it, for the verify
// stage.
func (b *Batch) filter(st *State, read []byte, cands []Candidate, cost *cl.Cost) []Candidate {
	maxErr := b.MaxErrors
	wc := &st.vs.classes
	kept := 0
	prepared := byte(0xFF) // no pattern prepared yet
	for i, c := range cands {
		// The window is exactly the one verification would scan;
		// windows too short to hold any match are dropped here the
		// way Verify itself would skip them.
		k := wc.of[i]
		if k < 0 {
			cost.Filtered++
			continue
		}
		if c.Strand != prepared {
			// Candidates arrive sorted by strand, so each strand's
			// pattern bitvectors build at most once per read.
			cost.FilterWords += st.fs.Prepare(st.Pattern(read, c.Strand), maxErr)
			prepared = c.Strand
		}
		cls := &wc.classes[k]
		if !cls.filtered {
			ok, fw := st.fs.AcceptPacked(b.Text, int(cls.lo), int(cls.lo+cls.n))
			cls.filtered, cls.pass, cls.words = true, ok, int32(fw)
		}
		cost.FilterWords += int64(cls.words)
		if !cls.pass {
			cost.Filtered++
			continue
		}
		cands[kept], wc.of[kept] = c, k
		kept++
	}
	wc.of = wc.of[:kept]
	return cands[:kept]
}

// verify Myers-scans the candidates in slice-local coordinates, shifts
// the matches by the slice origin, drops those outside the ownership
// range, and finalizes by the report policy — so a shard merge only ever
// sees globally-coordinated, owner-filtered mappings.
func (b *Batch) verify(st *State, read []byte, cands []Candidate, cost *cl.Cost) []Mapping {
	ms, vc := st.vs.verify(b.Text, read, cands, b.MaxErrors, b.Policy.VerifyCap)
	// Globalize and owner-filter in place: positions shift by a constant
	// so the sorted order Verify established survives, and compaction
	// writes only into slots already held.
	w := 0
	for _, m := range ms {
		g := int64(m.Pos) + b.SliceStart
		if g < b.OwnStart || g >= b.OwnEnd {
			continue
		}
		m.Pos = int32(g)
		ms[w] = m
		w++
	}
	ms = ms[:w]
	cost.VerifyWords += vc.VerifyWords
	cost.Verified = int64(len(ms))
	if b.Prefilter == PrefilterGateKeeper {
		// Every surviving candidate passed the filter and owns a full
		// window, so the ones Myers rejects are the filter's false accepts.
		cost.FalseAccepts = int64(len(cands)) - vc.Matched
	}
	return Finalize(ms, b.Policy.BestOnly, b.Policy.MaxLoc)
}

// Run maps reads with a host mapper that holds the whole reference text:
// one queue on one device, every read one work item (the baselines are
// threaded host programs in the paper; only REPUTE and CORAL split work
// across devices). It owns everything around the kernels — option
// defaults, read validation, the empty read set, the result — and hands
// build a Batch already describing the reads, the whole-text geometry and
// the default report policy (the all-mapper first-n); build fills in the
// mapper and returns the kernel.
func Run(dev *cl.Device, text dna.PackedSeq, reads [][]byte, opt Options, build func(*Batch) (*cl.Kernel, error)) (*Result, error) {
	opt = opt.WithDefaults()
	if err := ValidateReads(reads, opt); err != nil {
		return nil, err
	}
	res := &Result{
		Mappings:      make([][]Mapping, len(reads)),
		DeviceSeconds: map[string]float64{},
	}
	if len(reads) == 0 {
		return res, nil
	}
	kernel, err := build(&Batch{
		Text: text, OwnEnd: int64(text.Len()),
		Reads: reads, Out: res.Mappings,
		MaxErrors: opt.MaxErrors, Prefilter: opt.Prefilter,
		Policy: opt.Policy(),
	})
	if err != nil {
		return nil, err
	}
	q := cl.NewQueue(dev)
	if _, err := q.EnqueueNDRange(kernel, len(reads)); err != nil {
		return nil, err
	}
	res.SimSeconds, res.Cost = q.Finish()
	res.EnergyJ = q.EnergyJ()
	res.DeviceSeconds[dev.Name] = res.SimSeconds
	return res, nil
}
