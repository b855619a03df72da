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

// Policy is what a mapper reports of the candidates that verified.
type Policy struct {
	// VerifyCap is the first-n cap on verified matches, applied in
	// position order before the ownership filter (0 = none).
	VerifyCap int
	// BestOnly keeps only the lowest edit-distance stratum.
	BestOnly bool
	// MaxLoc caps the final report (0 = none).
	MaxLoc int
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
	win  []byte       // prefilter window scratch
	fs   filter.State // prefilter shifted-Hamming scratch
}

// Generate runs gen over both strands of read — the read itself, then
// its reverse complement — and returns the candidates it appended.
//
//repute:hotpath
func (st *State) Generate(gen Generator, read []byte, cost *cl.Cost) []Candidate {
	st.Cands = st.Cands[:0]
	gen(st, read, Forward, cost)
	if cap(st.rev) < len(read) {
		st.rev = make([]byte, len(read))
	}
	st.rev = st.rev[:len(read)]
	dna.ReverseComplementInto(st.rev, read)
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

// Locate resolves at most budget of the suffix-array rows [lo, hi) of ix,
// appends each as the candidate read start it implies for a seed at read
// offset off, charges the locate work, and returns the rows it took.
//
//repute:hotpath
func (st *State) Locate(ix *fmindex.Index, lo, hi, budget, off int, strand byte, cost *cl.Cost) int {
	c := min(hi-lo, budget)
	if c <= 0 {
		return 0
	}
	st.locs = ix.Locate(lo, lo+c, 0, st.locs[:0])
	cost.LocateSteps += int64(float64(c) * (1 + ix.LocateSteps()))
	for _, pos := range st.locs {
		st.Cands = append(st.Cands, Candidate{Pos: pos - int32(off), Strand: strand})
	}
	return c
}

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
			st := &State{}
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

// filter runs the GateKeeper-style shifted-Hamming test
// (internal/filter) over each candidate's verification window and
// compacts the survivors in place.
func (b *Batch) filter(st *State, read []byte, cands []Candidate, cost *cl.Cost) []Candidate {
	n, maxErr := len(read), b.MaxErrors
	kept := 0
	prepared := byte(0xFF) // no pattern prepared yet
	for _, c := range cands {
		// The window is exactly the one verification would scan;
		// windows too short to hold any match are dropped here the
		// way Verify itself would skip them.
		lo := max(int(c.Pos)-maxErr, 0)
		hi := min(int(c.Pos)+n+maxErr, b.Text.Len())
		if hi-lo < n-maxErr {
			cost.Filtered++
			continue
		}
		if c.Strand != prepared {
			// Candidates arrive sorted by strand, so each strand's
			// pattern bitvectors build at most once per read.
			cost.FilterWords += st.fs.Prepare(st.Pattern(read, c.Strand), maxErr)
			prepared = c.Strand
		}
		if cap(st.win) < hi-lo {
			st.win = make([]byte, hi-lo)
		}
		ok, fw := st.fs.Accept(b.Text.SliceInto(st.win, lo, hi))
		cost.FilterWords += fw
		if !ok {
			cost.Filtered++
			continue
		}
		cands[kept] = c
		kept++
	}
	return cands[:kept]
}

// verify Myers-scans the candidates in slice-local coordinates, shifts
// the matches by the slice origin, drops those outside the ownership
// range, and finalizes by the report policy — so a shard merge only ever
// sees globally-coordinated, owner-filtered mappings.
func (b *Batch) verify(st *State, read []byte, cands []Candidate, cost *cl.Cost) []Mapping {
	ms, vc := st.vs.Verify(b.Text, read, cands, b.MaxErrors, b.Policy.VerifyCap)
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
		Policy: Policy{VerifyCap: opt.MaxLocations, BestOnly: opt.Best, MaxLoc: opt.MaxLocations},
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
