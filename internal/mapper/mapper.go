// Package mapper defines the interface and shared machinery of every read
// mapper in the repository: mapping records, run options, result and
// accounting types, and the candidate-verification step (dedup + Myers
// bit-vector + coordinate recovery) that all filtration strategies feed.
package mapper

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

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

// Policy is the all-mapper first-n rule for o: locate 2·MaxLocations
// rows per strand, verify and report the first MaxLocations.
func (o Options) Policy() Policy {
	return Policy{Locate: 2 * o.MaxLocations, VerifyCap: o.MaxLocations, BestOnly: o.Best, MaxLoc: o.MaxLocations}
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
// The sort is by one integer key per candidate, written over the
// candidate's own eight bytes, so it runs in place with no comparator
// call and no scratch (sortKeys). Candidates with equal keys are equal,
// so the order is the (Strand, Pos) order whatever the sort's stability.
//
//repute:hotpath
func DedupCandidates(cands []Candidate, tol int32) []Candidate {
	if len(cands) == 0 {
		return cands
	}
	keys := unsafe.Slice((*uint64)(unsafe.Pointer(&cands[0])), len(cands))
	for i, c := range cands {
		// Flipping the sign bit makes the unsigned order of the
		// position bits the signed order of the positions.
		keys[i] = uint64(c.Strand)<<32 | uint64(uint32(c.Pos)^1<<31)
	}
	sortKeys(keys)
	// Slot w is written only after key w has been read: w ≤ i.
	w := 0
	for i, k := range keys {
		c := Candidate{Pos: int32(uint32(k) ^ 1<<31), Strand: byte(k >> 32)}
		if i > 0 {
			last := cands[w-1]
			if c.Strand == last.Strand && c.Pos-last.Pos <= tol {
				continue
			}
		}
		cands[w] = c
		w++
	}
	return cands[:w]
}

// A Candidate must be exactly one key wide for DedupCandidates to sort
// keys in its place; any other size fails to compile here.
var _ [0]struct{} = [unsafe.Sizeof(Candidate{}) - 8]struct{}{}

// sortKeys sorts keys in place by a radix sort (radixSort) that starts
// at the highest bit on which they differ: a read's candidates share
// the strand bits and most position bits, so its keys take a few 8-bit
// levels, not eight. It returns the keys the radix levels distributed,
// len(keys) per level; the rest of the work is insertion sort.
func sortKeys(keys []uint64) int {
	or, and := uint64(0), ^uint64(0)
	for _, k := range keys {
		or, and = or|k, and&k
	}
	// Bits at and above top are the same in every key.
	top := bits.Len64(or ^ and)
	if top == 0 {
		return 0
	}
	return radixSort(keys, uint(max(top-8, 0)))
}

// insertionCutoff is the largest run radixSort leaves to insertion sort:
// on runs this short, clearing and scanning 256 counts costs more than
// the moves.
const insertionCutoff = 32

// radixSort sorts keys whose bits at and above shift+8 are all equal:
// an in-place most-significant-digit radix sort (American flag sort).
// It counts the 8-bit digit at shift, cycles every key into its digit's
// bucket by swaps, and sorts each bucket on the next 8 bits down. The
// counts live on the stack, one set per level, and no level recurses
// below bit 0. It returns the keys it distributed over all levels.
func radixSort(keys []uint64, shift uint) int {
	if len(keys) <= insertionCutoff {
		insertionSort(keys)
		return 0
	}
	var count, next [256]int
	for _, k := range keys {
		count[byte(k>>shift)]++
	}
	sum := 0
	for d, c := range count {
		next[d] = sum
		sum += c
	}
	// Bucket d holds keys[next[d]:end] once every key before next[d]
	// in it is placed; each swap places one key for good.
	end := 0
	for d, c := range count {
		end += c
		for i := next[d]; i < end; i = next[d] {
			k := keys[i]
			for b := byte(k >> shift); int(b) != d; b = byte(k >> shift) {
				j := next[b]
				next[b]++
				keys[j], k = k, keys[j]
			}
			keys[i] = k
			next[d]++
		}
	}
	moved := len(keys)
	if shift == 0 {
		return moved
	}
	lower := uint(max(int(shift)-8, 0))
	start := 0
	for _, c := range count {
		if c > 1 {
			moved += radixSort(keys[start:start+c], lower)
		}
		start += c
	}
	return moved
}

// insertionSort sorts a short run of keys in place.
func insertionSort(keys []uint64) {
	for i := 1; i < len(keys); i++ {
		k, j := keys[i], i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
}

// Window is the verification window of a candidate at pos for a read of
// n bases and at most maxErr edits: [pos−maxErr, pos+n+maxErr) clamped to
// a text of textLen bases. ok is false when the clamped window is shorter
// than any match (n−maxErr bases); the candidate is then skipped.
func Window(pos int32, n, maxErr, textLen int) (lo, hi int, ok bool) {
	lo = max(int(pos)-maxErr, 0)
	hi = min(int(pos)+n+maxErr, textLen)
	return lo, hi, hi-lo >= n-maxErr
}

// VerifyState carries what verification reuses across reads: the window
// classes, the window and reverse-complement buffers and one Myers
// verifier per strand.
type VerifyState struct {
	classes windowClasses
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
// The scan runs once per window class (windowClasses): a candidate whose
// window equals an earlier one's takes that match, shifted to its own
// window, and is charged its window as if scanned.
//
//repute:hotpath
func (vs *VerifyState) Verify(text dna.PackedSeq, read []byte, cands []Candidate, maxDist, maxLoc int) ([]Mapping, VerifyCost) {
	vs.classes.assign(text, len(read), maxDist, cands)
	return vs.verify(text, read, cands, maxDist, maxLoc)
}

// verify is Verify past the class pass: it scans the classes the last
// pass left for cands (vs.classes.of[i] is cands[i]'s), which the
// kernel's filter stage may have compacted with its survivors.
//
//repute:hotpath
func (vs *VerifyState) verify(text dna.PackedSeq, read []byte, cands []Candidate, maxDist, maxLoc int) ([]Mapping, VerifyCost) {
	var cost VerifyCost
	n := len(read)
	wc := &vs.classes
	// Each strand's verifier is bound to this read by the first window
	// that needs it, so a read pays for a strand's match masks (and for
	// the reverse complement) once however many candidates it has.
	fwdReady, revReady := false, false
	for i, c := range cands {
		k := wc.of[i]
		if k < 0 {
			continue
		}
		cls := &wc.classes[k]
		cost.Windows++
		cost.VerifyWords += int64(align.BandWords(n, maxDist, int(cls.n)))
		if !cls.verified {
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
			if cap(vs.window) < int(cls.n) {
				vs.window = make([]byte, cls.n)
			}
			lo := int(cls.lo)
			m, ok := ver.Verify(text.SliceInto(vs.window, lo, lo+int(cls.n)), maxDist)
			cls.verified, cls.ok, cls.at, cls.dist = true, ok, int32(m.Start), uint8(m.Dist)
		}
		if cls.ok {
			cost.Matched++
		}
	}
	if cost.Matched == 0 {
		return nil, cost
	}
	// Each member's match is its class's, shifted to its own window.
	//repute:allow hotalloc -- verified mappings are the output, retained by the caller
	out, w := make([]Mapping, cost.Matched), 0
	for i, c := range cands {
		if k := wc.of[i]; k >= 0 && wc.classes[k].ok {
			lo, _, _ := Window(c.Pos, n, maxDist, text.Len())
			cls := &wc.classes[k]
			out[w] = Mapping{Pos: int32(lo) + cls.at, Strand: c.Strand, Dist: cls.dist}
			w++
		}
	}
	return Finalize(out, false, maxLoc), cost
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
