// Package mapper defines the interface and shared machinery of every read
// mapper in the repository: mapping records, run options, result and
// accounting types, and the candidate-verification step (dedup + Myers
// bit-vector + coordinate recovery) that all filtration strategies feed.
package mapper

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/align"
	"repro/internal/cl"
	"repro/internal/dna"
)

// Strand constants.
const (
	Forward = byte('+')
	Reverse = byte('-')
)

// Mapping is one reported location of a read: the leftmost reference
// position in forward-strand coordinates, the strand, and the edit
// distance. Per the paper's §IV, REPUTE reports exactly this triple (no
// CIGAR string).
type Mapping struct {
	Pos    int32
	Strand byte
	Dist   uint8
}

// Options configure a mapping run.
type Options struct {
	// MaxErrors is δ, the maximum edit distance.
	MaxErrors int
	// MaxLocations caps reported locations per read (the paper's
	// "first-n" policy forced by static allocation); 0 means 1000, the
	// setting used for most mappers in §III-A.
	MaxLocations int
	// Best selects best-mapper behaviour: only locations at the minimal
	// observed distance are reported (Yara/BWA-MEM/GEM-style).
	Best bool
	// MinSeedLen is Smin for the DP and heuristic selectors.
	MinSeedLen int
	// MaxSeedFreq is the CORAL growth threshold (0 = default).
	MaxSeedFreq int
	// Prefilter selects the optional pre-alignment filter stage between
	// seed location and verification: PrefilterOff (the default) or
	// PrefilterGateKeeper (bit-parallel shifted-Hamming rejection, see
	// internal/filter). The filter only ever accepts a superset of the
	// verifiable candidates, so mappings are identical either way.
	Prefilter string
}

// Prefilter stage names accepted by Options.Prefilter.
const (
	PrefilterOff        = "off"
	PrefilterGateKeeper = "gatekeeper"
)

// WithDefaults fills unset fields.
func (o Options) WithDefaults() Options {
	if o.MaxLocations <= 0 {
		o.MaxLocations = 1000
	}
	if o.MaxErrors < 0 {
		o.MaxErrors = 0
	}
	if o.Prefilter == "" {
		o.Prefilter = PrefilterOff
	}
	return o
}

// Result is the output of mapping a read set.
type Result struct {
	// Mappings[i] are read i's reported locations, deduplicated, sorted
	// by (Pos, Strand).
	Mappings [][]Mapping
	// SimSeconds is the simulated mapping time: the makespan across the
	// devices used (task-parallel kernels finish together at the max).
	SimSeconds float64
	// EnergyJ is the marginal (above idle) energy across devices.
	EnergyJ float64
	// DeviceSeconds is per-device busy time.
	DeviceSeconds map[string]float64
	// Cost aggregates the abstract operations performed.
	Cost cl.Cost
	// Faults accounts the recovery actions the run performed; the zero
	// value means a fault-free run.
	Faults FaultStats
}

// FaultStats accounts the fault-recovery work of a mapping run: how many
// transient faults were retried in place, how much simulated backoff
// those retries cost, how many batches were halved after allocation
// failures, and how many reads migrated off failed devices. The
// mappings themselves are unaffected by recovery — that is the
// fault-tolerance contract the determinism suite asserts — so these
// counters are the only place the turbulence shows.
type FaultStats struct {
	// Retries counts transient faults retried on the same device.
	Retries int
	// BackoffSimSec is the simulated backoff charged by those retries.
	BackoffSimSec float64
	// DegradedBatches counts batch halvings after allocation failures.
	DegradedBatches int
	// FailoverReads counts reads redistributed off permanently failed
	// devices.
	FailoverReads int
	// WatchdogFires counts enqueues the hang watchdog terminated
	// (cl.CommandTerminated) before recovery re-ran them.
	WatchdogFires int
	// FailedDevices lists devices lost permanently, in device order.
	FailedDevices []string
	// SkippedRecords counts input records a lenient-mode ingest dropped
	// (malformed or unmappably short) instead of aborting the run; the
	// host-side analogue of the device-fault counters above.
	SkippedRecords int
	// SkipReasons breaks SkippedRecords down by fastx skip reason.
	SkipReasons map[string]int
}

// Any reports whether any recovery action was taken.
func (f FaultStats) Any() bool {
	return f.Retries != 0 || f.DegradedBatches != 0 || f.FailoverReads != 0 ||
		f.WatchdogFires != 0 || len(f.FailedDevices) != 0 || f.SkippedRecords != 0
}

// Add accumulates o into f (used when a run spans several Map calls,
// e.g. paired-end mates).
func (f *FaultStats) Add(o FaultStats) {
	f.Retries += o.Retries
	f.BackoffSimSec += o.BackoffSimSec
	f.DegradedBatches += o.DegradedBatches
	f.FailoverReads += o.FailoverReads
	f.WatchdogFires += o.WatchdogFires
	f.FailedDevices = append(f.FailedDevices, o.FailedDevices...)
	f.SkippedRecords += o.SkippedRecords
	if len(o.SkipReasons) > 0 {
		if f.SkipReasons == nil {
			f.SkipReasons = make(map[string]int, len(o.SkipReasons))
		}
		for r, n := range o.SkipReasons {
			f.SkipReasons[r] += n
		}
	}
}

// MappedReads counts reads with at least one reported location.
func (r *Result) MappedReads() int {
	n := 0
	for _, ms := range r.Mappings {
		if len(ms) > 0 {
			n++
		}
	}
	return n
}

// TotalLocations counts all reported locations.
func (r *Result) TotalLocations() int {
	n := 0
	for _, ms := range r.Mappings {
		n += len(ms)
	}
	return n
}

// Mapper is a complete read mapper bound to a reference.
type Mapper interface {
	Name() string
	Map(reads [][]byte, opt Options) (*Result, error)
}

// Candidate is an unverified potential read start position on one strand.
type Candidate struct {
	Pos    int32 // putative leftmost read position (may be refined by ±δ)
	Strand byte
}

// DedupCandidates sorts candidates and collapses entries whose positions
// fall within tol of the previous kept entry on the same strand — seeds
// from the same alignment vote for positions that differ by the indel
// offset, so tol is normally δ.
//
//repute:hotpath
func DedupCandidates(cands []Candidate, tol int32) []Candidate {
	if len(cands) == 0 {
		return cands
	}
	slices.SortFunc(cands, func(a, b Candidate) int {
		if a.Strand != b.Strand {
			return int(a.Strand) - int(b.Strand)
		}
		return cmp.Compare(a.Pos, b.Pos)
	})
	out := cands[:1]
	for _, c := range cands[1:] {
		last := out[len(out)-1]
		if c.Strand == last.Strand && c.Pos-last.Pos <= tol {
			continue
		}
		out = append(out, c)
	}
	return out
}

// VerifyState carries what verification reuses across reads: the window
// and reverse-complement buffers and one Myers verifier per strand.
type VerifyState struct {
	window  []byte
	revComp []byte
	fwd     align.Verifier
	rev     align.Verifier
}

// VerifyCost tallies the work a verification performed so kernels can
// charge it to their work item.
type VerifyCost struct {
	Windows     int64
	VerifyWords int64
	// Matched counts candidates whose window verified (the Myers scan
	// found a match within the budget); callers running behind the
	// pre-alignment filter derive false accepts as len(cands)-Matched.
	Matched int64
}

// Verify checks every candidate with the Myers bit-vector and returns the
// verified mappings (deduplicated by exact position and strand, sorted).
// reads on the reverse strand are verified against the reverse-complement
// pattern so the reported position stays in forward coordinates.
//
//repute:hotpath
func (vs *VerifyState) Verify(text dna.PackedSeq, read []byte, cands []Candidate, maxDist, maxLoc int) ([]Mapping, VerifyCost) {
	var out []Mapping
	var cost VerifyCost
	n := len(read)
	// Each strand's verifier is bound to this read by the first candidate
	// that needs it, so a read pays for a strand's match masks (and for
	// the reverse complement) once however many candidates it has.
	fwdReady, revReady := false, false
	for _, c := range cands {
		lo := int(c.Pos) - maxDist
		hi := int(c.Pos) + n + maxDist
		if lo < 0 {
			lo = 0
		}
		if hi > text.Len() {
			hi = text.Len()
		}
		if hi-lo < n-maxDist {
			continue
		}
		ver := &vs.fwd
		if c.Strand == Reverse {
			ver = &vs.rev
			if !revReady {
				if cap(vs.revComp) < n {
					vs.revComp = make([]byte, n)
				}
				vs.revComp = vs.revComp[:n]
				dna.ReverseComplementInto(vs.revComp, read)
				ver.Reset(vs.revComp)
				revReady = true
			}
		} else if !fwdReady {
			ver.Reset(read)
			fwdReady = true
		}
		if cap(vs.window) < hi-lo {
			vs.window = make([]byte, hi-lo)
		}
		win := text.SliceInto(vs.window, lo, hi)
		cost.Windows++
		cost.VerifyWords += int64(align.WordCost(n) * len(win))
		m, ok := ver.Verify(win, maxDist)
		if !ok {
			continue
		}
		cost.Matched++
		//repute:allow hotalloc -- verified mappings are the output, retained by the caller
		out = append(out, Mapping{
			Pos:    int32(lo + m.Start),
			Strand: c.Strand,
			Dist:   uint8(m.Dist),
		})
	}
	out = Finalize(out, false, maxLoc)
	return out, cost
}

// Finalize deduplicates, optionally keeps only the best stratum, sorts,
// and applies the first-n location cap.
//
//repute:hotpath
func Finalize(ms []Mapping, bestOnly bool, maxLoc int) []Mapping {
	if len(ms) == 0 {
		return ms
	}
	slices.SortFunc(ms, func(a, b Mapping) int {
		if a.Pos != b.Pos {
			return cmp.Compare(a.Pos, b.Pos)
		}
		if a.Strand != b.Strand {
			return int(a.Strand) - int(b.Strand)
		}
		return cmp.Compare(a.Dist, b.Dist)
	})
	dedup := ms[:1]
	for _, m := range ms[1:] {
		last := &dedup[len(dedup)-1]
		if m.Pos == last.Pos && m.Strand == last.Strand {
			if m.Dist < last.Dist {
				last.Dist = m.Dist
			}
			continue
		}
		dedup = append(dedup, m)
	}
	ms = dedup
	if bestOnly {
		best := ms[0].Dist
		for _, m := range ms[1:] {
			if m.Dist < best {
				best = m.Dist
			}
		}
		keep := ms[:0]
		for _, m := range ms {
			if m.Dist == best {
				keep = append(keep, m)
			}
		}
		ms = keep
	}
	if maxLoc > 0 && len(ms) > maxLoc {
		ms = ms[:maxLoc]
	}
	return ms
}

// MergeShards combines one read's mappings from several reference shards
// into the final report. Inputs must already be in global coordinates
// and filtered to each shard's ownership range, so the union has no
// cross-shard duplicates and the merge reduces to a deterministic
// re-finalize: sort by (Pos, Strand, Dist), re-apply the best-stratum
// policy across shards, and re-impose the first-n cap globally. The
// result is independent of shard count and of the order shards finished.
func MergeShards(parts [][]Mapping, bestOnly bool, maxLoc int) []Mapping {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	all := make([]Mapping, 0, total)
	for _, p := range parts {
		all = append(all, p...)
	}
	return Finalize(all, bestOnly, maxLoc)
}

// ValidateReads rejects reads no mapper here can handle, plus option
// values with no pipeline interpretation.
func ValidateReads(reads [][]byte, opt Options) error {
	switch opt.Prefilter {
	case "", PrefilterOff, PrefilterGateKeeper:
	default:
		return fmt.Errorf("mapper: unknown prefilter %q (valid: %s, %s)",
			opt.Prefilter, PrefilterOff, PrefilterGateKeeper)
	}
	for i, r := range reads {
		if len(r) == 0 {
			return fmt.Errorf("mapper: read %d is empty", i)
		}
		if len(r) <= opt.MaxErrors {
			return fmt.Errorf("mapper: read %d length %d <= max errors %d",
				i, len(r), opt.MaxErrors)
		}
		for j, c := range r {
			if c > 3 {
				return fmt.Errorf("mapper: read %d has invalid code %d at %d", i, c, j)
			}
		}
	}
	return nil
}
