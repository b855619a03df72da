package bench

// Pre-alignment filter ablation: the GateKeeper-style filter kernel is
// only worth its cycles if it (a) never changes the final mappings and
// (b) rejects enough junk candidates before Myers verification to buy
// back more simulated time than it spends. This experiment maps one read
// set with the filter off and on across several error budgets and
// reports filtered fraction, false-accept rate, the (required-zero)
// false-reject count, and the simulated-time speedup.
// testdata/prefilter_small.json is the committed run at Small/seed 1 that
// TestPrefilterSweepGolden holds it to.

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fmindex"
	"repro/internal/mapper"
	"repro/internal/seed"
	"repro/internal/trace"
)

// PrefilterRow is one (selector, error budget) ablation measurement.
type PrefilterRow struct {
	// Selector is the seed selection strategy the row ran under. The
	// filter's payoff depends on it: uniform fixed-stride seeding (the
	// regime GateKeeper-class filters were designed for) floods
	// verification with junk candidates, while the frequency-aware DP
	// selector already suppresses most junk at the seeding stage.
	Selector string `json:"selector"`
	// Delta is the error budget δ (mapper.Options.MaxErrors).
	Delta int `json:"delta"`
	// Reads is the mapped read count.
	Reads int `json:"reads"`
	// Candidates is the total deduplicated candidate locations the
	// filter examined (candidates_total in a filtered run).
	Candidates int64 `json:"candidates"`
	// Rejected is how many of them the filter discarded before
	// verification (prefilter_rejected_total).
	Rejected int64 `json:"rejected"`
	// FilteredFraction is Rejected / Candidates.
	FilteredFraction float64 `json:"filtered_fraction"`
	// FalseAccepts counts filter-accepted candidates that Myers
	// verification then rejected (prefilter_false_accepts_total).
	FalseAccepts int64 `json:"false_accepts"`
	// FalseAcceptRate is FalseAccepts / (Candidates - Rejected): of what
	// the filter let through, the fraction verification threw away.
	FalseAcceptRate float64 `json:"false_accept_rate"`
	// FalseRejects is the number of reads whose mappings differ between
	// the unfiltered and filtered runs. The filter's superset invariant
	// requires this to be zero; the accuracy-regression gate fails the
	// experiment otherwise.
	FalseRejects int `json:"false_rejects"`
	// GateOK records that eval.PrefilterGate passed (outputs identical).
	GateOK bool `json:"gate_ok"`
	// SimSecondsOff/On are the simulated mapping times without and with
	// the filter; Speedup is their ratio.
	SimSecondsOff float64 `json:"sim_seconds_off"`
	SimSecondsOn  float64 `json:"sim_seconds_on"`
	Speedup       float64 `json:"speedup"`
}

// PrefilterBench is the full ablation.
type PrefilterBench struct {
	Scale   string         `json:"scale"`
	ReadLen int            `json:"read_len"`
	Rows    []PrefilterRow `json:"rows"`
}

// RunPrefilterBench maps the dataset's 100 bp read set at δ ∈ {0..3}
// with the pre-alignment filter off and on, under both the uniform
// fixed-stride seed selector (the junk-heavy regime GateKeeper-class
// filters were built for) and the paper's frequency-aware DP selector
// (which suppresses most junk before it ever reaches verification).
func RunPrefilterBench(ds *Dataset) (*PrefilterBench, error) {
	const readLen = 100
	set, ok := ds.Sets[readLen]
	if !ok {
		return nil, fmt.Errorf("bench: dataset has no %d bp read set", readLen)
	}
	probe, err := core.New(ds.Ref, []*cl.Device{cl.SystemOneCPU()}, core.Config{})
	if err != nil {
		return nil, err
	}
	ix := probe.Index()

	b := &PrefilterBench{Scale: ds.Scale.Name, ReadLen: readLen}
	selectors := []seed.Selector{seed.Uniform{}, seed.REPUTE{}}
	for _, sel := range selectors {
		for delta := 0; delta <= 3; delta++ {
			row, err := prefilterPoint(ix, set.Reads, sel, delta)
			if err != nil {
				return nil, err
			}
			b.Rows = append(b.Rows, *row)
		}
	}
	return b, nil
}

// prefilterPoint measures one (selector, δ) configuration off vs on.
func prefilterPoint(ix *fmindex.Index, reads [][]byte, sel seed.Selector, delta int) (*PrefilterRow, error) {
	opt := mapper.Options{
		MaxErrors: delta, MaxLocations: 200, MinSeedLen: 8,
		Prefilter: mapper.PrefilterOff,
	}
	pOff, err := core.NewFromIndex(ix, []*cl.Device{cl.SystemOneCPU()}, core.Config{Selector: sel})
	if err != nil {
		return nil, err
	}
	off, err := pOff.Map(reads, opt)
	if err != nil {
		return nil, err
	}

	rec := trace.NewRecorder()
	pOn, err := core.NewFromIndex(ix, []*cl.Device{cl.SystemOneCPU()}, core.Config{Selector: sel, Tracer: rec})
	if err != nil {
		return nil, err
	}
	opt.Prefilter = mapper.PrefilterGateKeeper
	on, err := pOn.Map(reads, opt)
	if err != nil {
		return nil, err
	}

	m := rec.Metrics()
	row := PrefilterRow{
		Selector:      sel.Name(),
		Delta:         delta,
		Reads:         len(reads),
		Candidates:    m.Counters["candidates_total"],
		Rejected:      m.Counters["prefilter_rejected_total"],
		FalseAccepts:  m.Counters["prefilter_false_accepts_total"],
		SimSecondsOff: off.SimSeconds,
		SimSecondsOn:  on.SimSeconds,
	}
	if row.Candidates > 0 {
		row.FilteredFraction = float64(row.Rejected) / float64(row.Candidates)
	}
	if surv := row.Candidates - row.Rejected; surv > 0 {
		row.FalseAcceptRate = float64(row.FalseAccepts) / float64(surv)
	}
	if row.SimSecondsOn > 0 {
		row.Speedup = row.SimSecondsOff / row.SimSecondsOn
	}
	for i := range off.Mappings {
		if !sameReadMappings(off.Mappings[i], on.Mappings[i]) {
			row.FalseRejects++
		}
	}
	row.GateOK = eval.PrefilterGate(off.Mappings, on.Mappings) == nil
	if !row.GateOK {
		return nil, fmt.Errorf("bench: prefilter gate failed (%s, δ=%d): %v",
			sel.Name(), delta, eval.PrefilterGate(off.Mappings, on.Mappings))
	}
	return &row, nil
}

func sameReadMappings(a, b []mapper.Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Render prints the ablation table.
func (b *PrefilterBench) Render(w io.Writer) {
	fmt.Fprintf(w, "Pre-alignment filter ablation (%s scale, %d bp reads)\n", b.Scale, b.ReadLen)
	fmt.Fprintf(w, "%-9s %-3s %10s %10s %9s %9s %9s %6s %10s %10s %8s\n",
		"selector", "δ", "cands", "rejected", "frac", "f.acc", "f.accRate", "f.rej", "off", "on", "speedup")
	for _, r := range b.Rows {
		fmt.Fprintf(w, "%-9s %-3d %10d %10d %8.1f%% %9d %8.1f%% %6d %9.3fs %9.3fs %7.2fx\n",
			r.Selector, r.Delta, r.Candidates, r.Rejected, 100*r.FilteredFraction,
			r.FalseAccepts, 100*r.FalseAcceptRate, r.FalseRejects,
			r.SimSecondsOff, r.SimSecondsOn, r.Speedup)
	}
}

// WriteJSON writes the measurements as indented JSON.
func (b *PrefilterBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
