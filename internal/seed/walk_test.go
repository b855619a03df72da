package seed

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fmindex"
)

// unsharedWalker is the frequency walk with nothing shared: each end's
// walk ranks every step it takes and keeps its own counts. It is the
// oracle the shared walks must match, count for count and charged step
// for charged step.
type unsharedWalker struct {
	ix      *fmindex.Index
	read    []byte
	table   int
	end, k  int
	lo, hi  int
	counts  []int32 // counts[l-1] is the count of read[end-l:end], table ≤ l ≤ k
	fmSteps int
}

func (w *unsharedWalker) reset(end int) {
	w.end, w.k = end, 0
	w.lo, w.hi = w.ix.Start()
	if t := w.table; t > 0 {
		if lo, hi := w.ix.Lookup(w.read[end-t : end]); lo < hi {
			w.lo, w.hi, w.k = lo, hi, t
			w.counts[t-1] = int32(hi - lo)
			w.fmSteps += t
		}
	}
}

func (w *unsharedWalker) count(l int) int32 {
	for w.k < l && w.lo < w.hi {
		w.lo, w.hi = w.ix.ExtendLeft(w.read[w.end-1-w.k], w.lo, w.hi)
		w.counts[w.k] = int32(max(w.hi-w.lo, 0))
		w.k++
		w.fmSteps++
	}
	if l > w.k {
		return 0
	}
	return w.counts[l-1]
}

// probe is one end's walk in a plan: reset to end, then count each length.
type probe struct {
	end  int
	lens []int
}

// dpPlan is the walks dpSelect makes on a read of n bases at δ+1 = parts
// seeds and Smin: the ends it visits, in its order, each asked for lengths
// in [Smin, Smin+W] as its scan may ask them, in an order drawn from rng.
func dpPlan(rng *rand.Rand, n, parts, smin int) []probe {
	w := n - parts*smin
	var plan []probe
	for e := smin; e <= n; e++ {
		jHi, jLo := min(e/smin, parts), max((e-w+smin-1)/smin, 1)
		if jHi == parts && e != n {
			jHi = parts - 1
		}
		if jLo > jHi {
			continue
		}
		p := probe{end: e}
		for range 1 + rng.Intn(4) {
			p.lens = append(p.lens, smin+rng.Intn(min(w, e-smin)+1))
		}
		plan = append(plan, p)
	}
	return plan
}

// anyPlan is walks in no order the DP keeps: random ends, repeated or
// not, each asked for random lengths from table up.
func anyPlan(rng *rand.Rand, n, table int) []probe {
	plan := make([]probe, 1+rng.Intn(2*n))
	for i := range plan {
		e := max(table, 1) + rng.Intn(n-max(table, 1)+1)
		plan[i].end = e
		for range 1 + rng.Intn(3) {
			plan[i].lens = append(plan[i].lens, max(table, 1)+rng.Intn(e-max(table, 1)+1))
		}
	}
	return plan
}

// checkSharedWalk runs plan through w, begun afresh on read, and through
// the unshared oracle. Every count must be searchSeed's, and the steps the
// two charge must agree. It returns the ExtendLeft calls w made and the
// steps it charged.
func checkSharedWalk(t *testing.T, w *walker, ix *fmindex.Index, read []byte, table int, plan []probe) (ranks, charged int) {
	t.Helper()
	w.begin(ix, read, table)
	o := &unsharedWalker{ix: ix, read: read, table: table, counts: make([]int32, len(read))}
	for _, p := range plan {
		w.reset(p.end)
		o.reset(p.end)
		for _, l := range p.lens {
			lo, hi, _ := searchSeed(ix, read, p.end-l, p.end)
			want := int32(max(hi-lo, 0))
			if got, orc := w.count(l), o.count(l); got != want || orc != want {
				t.Fatalf("read %v (table %d): count of [%d:%d] shared %d, unshared %d, search %d",
					read, table, p.end-l, p.end, got, orc, want)
			}
		}
	}
	if w.fmSteps != o.fmSteps {
		t.Fatalf("read %v (table %d): shared walks charge %d FM steps, unshared %d", read, table, w.fmSteps, o.fmSteps)
	}
	if w.ranks > w.fmSteps {
		t.Fatalf("read %v (table %d): %d ranks for %d charged steps", read, table, w.ranks, w.fmSteps)
	}
	return w.ranks, w.fmSteps
}

// plantRead cuts a read of n bases from text and plants up to three edits
// in it: substitutions, and an insertion or deletion.
func plantRead(rng *rand.Rand, text []byte, n int) []byte {
	start := rng.Intn(len(text) - n - 3)
	read := append([]byte(nil), text[start:start+n+3]...)
	for k := rng.Intn(4); k > 0; k-- {
		switch i := rng.Intn(n); rng.Intn(4) {
		case 0:
			read = append(read[:i+1], read[i:]...) // insertion
			read[i] = byte(rng.Intn(4))
		case 1:
			read = append(read[:i], read[i+1:]...) // deletion
		default:
			read[i] = byte(rng.Intn(4))
		}
	}
	return read[:n]
}

// TestSharedWalkVsUnshared holds the shared walks to searchSeed and to
// the unshared walk on random, periodic and repetitive texts at k-mer
// table depths 0 to 5, on reads with planted edits: every end dpSelect
// visits, in its order, at every table depth up to Smin, and walks in
// random order, ends repeated. One walker serves every read of a text, as
// a worker's scratch does. Then one Scratch, reused across reads, δ and
// Smin, must select exactly what a fresh one does.
func TestSharedWalkVsUnshared(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	texts := []struct {
		name  string
		text  []byte
		depth int
	}{
		{"random-400", randText(rng, 400), 0},
		{"periodic-1k", periodicText(rng, 1_000, 5), 1},
		{"repetitive-3k", repetitiveText(rng, 3_000), 2},
		{"random-10k", randText(rng, 10_000), 3},
		{"periodic-40k", periodicText(rng, 40_000, 7), 4},
		{"repetitive-140k", repetitiveText(rng, 140_000), 5},
	}
	for _, tt := range texts {
		t.Run(tt.name, func(t *testing.T) {
			ix := fmindex.Build(tt.text, fmindex.Options{})
			if ix.Depth() != tt.depth {
				t.Fatalf("k-mer table depth %d, want %d", ix.Depth(), tt.depth)
			}
			var w walker
			var sc Scratch
			ranks, charged := 0, 0
			for trial := 0; trial < 60; trial++ {
				n := 20 + rng.Intn(131)
				read := plantRead(rng, tt.text, n)
				parts := 1 + rng.Intn(7)
				smin := 1 + rng.Intn(min(16, n/parts))
				for table := 0; table <= min(ix.Depth(), smin); table++ {
					r, c := checkSharedWalk(t, &w, ix, read, table, dpPlan(rng, n, parts, smin))
					ranks, charged = ranks+r, charged+c
				}
				checkSharedWalk(t, &w, ix, read, min(ix.Depth(), smin), anyPlan(rng, n, min(ix.Depth(), smin)))

				p := Params{Errors: parts - 1, MinSeedLen: smin}
				for _, sel := range []Selector{REPUTE{}, OSS{}} {
					want, werr := sel.Select(ix, read, p)
					got, gerr := sc.Select(sel, ix, read, p)
					if !reflect.DeepEqual(got, want) || (gerr == nil) != (werr == nil) {
						t.Fatalf("%s on %v (δ %d, Smin %d): reused scratch %+v (%v), fresh %+v (%v)",
							sel.Name(), read, parts-1, smin, got, gerr, want, werr)
					}
				}
			}
			t.Logf("DP-order walks: %d ranks for %d charged steps", ranks, charged)
		})
	}
}

// TestSharedWalkShares checks that the walks do share: on reads planted
// in a random text too short for a k-mer table, so that every charged
// step is a walked one, REPUTE's walks rank fewer steps than they charge.
func TestSharedWalkShares(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	text := randText(rng, 500)
	ix := fmindex.Build(text, fmindex.Options{})
	if ix.Depth() != 0 {
		t.Fatalf("k-mer table depth %d, want 0", ix.Depth())
	}
	var sc Scratch
	for trial := 0; trial < 20; trial++ {
		read := plantRead(rng, text, 100)
		if _, err := sc.Select(REPUTE{}, ix, read, Params{Errors: 5, MinSeedLen: 9}); err != nil {
			t.Fatal(err)
		}
		if ranks, charged := sc.WalkSteps(); ranks == 0 || ranks >= charged {
			t.Errorf("read %v: the walks ranked %d of %d charged steps", read, ranks, charged)
		}
	}
}

var (
	walkFuzzOnce sync.Once
	walkFuzzIx   [2]*fmindex.Index
	walkFuzzText [2][]byte
)

// FuzzSharedWalk holds the shared walks to searchSeed and the unshared
// walk on a read cut from a repetitive 40 kb or a periodic 3 kb text
// (k-mer table depths 4 and 2), with the input's substitutions, at the
// input's table depth, in dpSelect's order at the input's δ and Smin and
// then in an order drawn from the input's seed. The walker is reused
// from the last input.
func FuzzSharedWalk(f *testing.F) {
	f.Add(false, uint16(1000), uint8(100), []byte{}, uint8(5), uint8(9), uint8(4), int64(1))
	f.Add(true, uint16(7), uint8(30), []byte{3, 1, 9, 2}, uint8(2), uint8(10), uint8(0), int64(2))
	f.Add(false, uint16(300), uint8(150), []byte{0, 0, 40, 3, 80, 1}, uint8(7), uint8(1), uint8(1), int64(3))
	f.Add(true, uint16(5), uint8(20), []byte{}, uint8(0), uint8(16), uint8(2), int64(4))
	var w walker
	f.Fuzz(func(t *testing.T, periodic bool, pos uint16, nRaw uint8, edits []byte, errRaw, sminRaw, tableRaw uint8, order int64) {
		walkFuzzOnce.Do(func() {
			rng := rand.New(rand.NewSource(46))
			walkFuzzText[0], walkFuzzText[1] = repetitiveText(rng, 40_000), periodicText(rng, 3_000, 6)
			for i, text := range walkFuzzText {
				walkFuzzIx[i] = fmindex.Build(text, fmindex.Options{})
			}
		})
		which := 0
		if periodic {
			which = 1
		}
		ix, text := walkFuzzIx[which], walkFuzzText[which]
		n := 1 + int(nRaw)%200
		start := int(pos) % (len(text) - n)
		read := append([]byte(nil), text[start:start+n]...)
		for i := 0; i+1 < len(edits); i += 2 {
			read[int(edits[i])%n] = edits[i+1] & 3
		}
		parts := 1 + int(errRaw)%8
		smin := 1 + int(sminRaw)%16
		if n < parts*smin {
			parts, smin = 1, min(smin, n)
		}
		table := int(tableRaw) % (min(ix.Depth(), smin) + 1)
		rng := rand.New(rand.NewSource(order))
		checkSharedWalk(t, &w, ix, read, table, dpPlan(rng, n, parts, smin))
		checkSharedWalk(t, &w, ix, read, table, anyPlan(rng, n, table))
	})
}
