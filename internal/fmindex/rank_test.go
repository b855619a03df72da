package fmindex

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dna"
)

// rankOnly builds just the rank structure over arbitrary BWT codes with
// the sentinel at any row, so the tests can put it where no real text
// would: it need not be a valid transform for occAt to be well defined.
func rankOnly(bw []byte, sentinelRow int) *Index {
	ix := &Index{n: len(bw) - 1, sentinelRow: sentinelRow}
	ix.buildRank(dna.Pack(bw).Bytes())
	return ix
}

// bwtCodes unpacks the BWT an index ranks over, placeholder included.
func bwtCodes(ix *Index) []byte {
	bw, _ := ix.rankSections()
	return dna.FromPacked(bw, ix.n+1).Unpack()
}

// checkOccAt compares occAt with a byte-at-a-time count for every base
// and every i in [0, len(bw)], and the split step ExtendLeftBase then
// ExtendLeftRest with ExtendLeft over [i, len(bw)).
func checkOccAt(t *testing.T, ix *Index, bw []byte) {
	t.Helper()
	var want [4]int
	for i := 0; i <= len(bw); i++ {
		for b := byte(0); b < 4; b++ {
			if got := ix.occAt(b, i); got != want[b] {
				t.Fatalf("m=%d sentinel row %d (base %d): occAt(%d, %d) = %d want %d",
					len(bw), ix.sentinelRow, ix.sentinelBase, b, i, got, want[b])
			}
			baseLo, baseHi := ix.ExtendLeftBase(b, i, len(bw))
			lo, hi := ix.ExtendLeftRest(b, i, len(bw), baseLo, baseHi)
			if wlo, whi := ix.ExtendLeft(b, i, len(bw)); lo != wlo || hi != whi {
				t.Fatalf("m=%d sentinel row %d: split step of %d over [%d, %d) = [%d, %d) want [%d, %d)",
					len(bw), ix.sentinelRow, b, i, len(bw), lo, hi, wlo, whi)
			}
		}
		if i < len(bw) && i != ix.sentinelRow {
			want[bw[i]]++
		}
	}
}

func TestOccAtExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{1, 2, 4, 31, 32, 33, 127, 128, 129, 256, 1000} {
		// First row, last row, and both sides of every word and block
		// boundary the size has.
		rows := map[int]bool{0: true, m - 1: true}
		for _, edge := range []int{wordRows, occCheckpoint, 2 * occCheckpoint} {
			for _, r := range []int{edge - 1, edge} {
				if r < m {
					rows[r] = true
				}
			}
		}
		random := randomText(rng, m)
		for row := range rows {
			// The placeholder takes every code in turn: whichever base is
			// queried, some run has the sentinel stored as that base.
			for placeholder := byte(0); placeholder < 4; placeholder++ {
				random[row] = placeholder
				checkOccAt(t, rankOnly(random, row), random)
			}
			for base := byte(0); base < 4; base++ {
				single := bytes.Repeat([]byte{base}, m)
				checkOccAt(t, rankOnly(single, row), single)
			}
		}
	}
}

// TestOccAtBuiltTexts runs the same oracle over real transforms,
// single-base texts included: Build stores placeholder 0 = A, so on an
// all-A text every rank query is for the placeholder's own base.
func TestOccAtBuiltTexts(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, m := range []int{1, 2, 4, 31, 32, 33, 127, 128, 129, 256, 1000} {
		texts := [][]byte{randomText(rng, m-1)}
		for base := byte(0); base < 4; base++ {
			texts = append(texts, bytes.Repeat([]byte{base}, m-1))
		}
		for _, text := range texts {
			ix := Build(text, Options{})
			checkOccAt(t, ix, bwtCodes(ix))
			for b := 0; b < 4; b++ {
				if got := ix.occAt(byte(b), m); got != ix.counts[b] {
					t.Fatalf("m=%d: occAt(%d, m) = %d, text holds %d", m, b, got, ix.counts[b])
				}
			}
		}
	}
}

// bwtSectionOffset is where the packed BWT bytes start in a serialized
// index: magic, version, n, four counts, sentinel row, sample rate, and
// the section's own length field.
const bwtSectionOffset = 4 + 4 + 8 + 4*8 + 8 + 4 + 8

// TestNonZeroPlaceholderBits loads an index whose sentinel row holds
// each non-zero code. The old scan skipped that row unread; the popcount
// reads it, so the correction must use the stored base.
func TestNonZeroPlaceholderBits(t *testing.T) {
	text := randomText(rand.New(rand.NewSource(13)), 700)
	ix := Build(text, Options{})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for placeholder := byte(1); placeholder < 4; placeholder++ {
		data := bytes.Clone(buf.Bytes())
		data[bwtSectionOffset+ix.sentinelRow/4] |= placeholder << (ix.sentinelRow % 4 * 2)
		got, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("placeholder %d: %v", placeholder, err)
		}
		if got.sentinelBase != placeholder {
			t.Fatalf("loaded placeholder %d, file holds %d", got.sentinelBase, placeholder)
		}
		checkOccAt(t, got, bwtCodes(got))
		for i := 0; i <= ix.n+1; i++ {
			for b := byte(0); b < 4; b++ {
				if got.occAt(b, i) != ix.occAt(b, i) {
					t.Fatalf("placeholder %d changes occAt(%d, %d)", placeholder, b, i)
				}
			}
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil || !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("placeholder %d does not survive a round trip (err %v)", placeholder, err)
		}
	}
}

// TestReadFromRejectsWrongCheckpoints corrupts one occ entry of a stream
// whose lengths all still agree.
func TestReadFromRejectsWrongCheckpoints(t *testing.T) {
	text := randomText(rand.New(rand.NewSource(14)), 700)
	var buf bytes.Buffer
	if _, err := Build(text, Options{}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	occOffset := bwtSectionOffset + int(expectedBWTBytes(700)) + 8 + int(expectedTextBytes(700)) + 8
	for _, entry := range []int{0, 5, int(expectedOccLen(700)) - 1} {
		off := occOffset + 4*entry
		for _, bad := range []uint32{binary.LittleEndian.Uint32(buf.Bytes()[off:]) + 1, math.MaxUint32} {
			data := bytes.Clone(buf.Bytes())
			binary.LittleEndian.PutUint32(data[off:], bad)
			if _, err := ReadFrom(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("occ entry %d set to %d: err = %v, want ErrCorrupt", entry, bad, err)
			}
		}
	}
}

// TestReadFromRejectsWrongCounts moves one occurrence between two header
// counts, keeping their sum: C would put intervals outside the BWT.
func TestReadFromRejectsWrongCounts(t *testing.T) {
	text := randomText(rand.New(rand.NewSource(16)), 700)
	var buf bytes.Buffer
	if _, err := Build(text, Options{}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	const countsOffset = 4 + 4 + 8
	binary.LittleEndian.PutUint64(data[countsOffset:], binary.LittleEndian.Uint64(data[countsOffset:])+1)
	binary.LittleEndian.PutUint64(data[countsOffset+8:], binary.LittleEndian.Uint64(data[countsOffset+8:])-1)
	if _, err := ReadFrom(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// TestWriteToGolden pins the serialized bytes of a fixed reference to the
// values the pre-interleaving code wrote: the in-memory layout is not
// allowed to show in the file.
func TestWriteToGolden(t *testing.T) {
	for _, tc := range []struct {
		rate, size int
		sha        string
	}{
		{0, 4725, "eba75521004ae4275421dc5727c2c677cdfada46b913eeddc5f60b737d0630c7"},
		{8, 1361, "1c98030924bfd06ad0239ae13aef6c4999bf5debd853a19d87b4a17570d47b92"},
	} {
		text := randomText(rand.New(rand.NewSource(99)), 1000)
		var buf bytes.Buffer
		if _, err := Build(text, Options{SASampleRate: tc.rate}).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); buf.Len() != tc.size || got != tc.sha {
			t.Errorf("rate %d: %d bytes, sha256 %s; want %d bytes, %s", tc.rate, buf.Len(), got, tc.size, tc.sha)
		}
	}
}

// TestSizeBytesTable pins the simulated AllocBuffer size — what device
// allocation limits are checked against — to the values of the separate
// bwt and occ arrays the blocks replaced.
func TestSizeBytesTable(t *testing.T) {
	for _, tc := range []struct {
		n, rate int
		want    int64
	}{
		{0, 0, 17}, {0, 4, 33}, {0, 32, 33},
		{1, 0, 22}, {1, 4, 38}, {1, 32, 38},
		{3, 0, 30}, {3, 4, 38}, {3, 32, 38},
		{126, 0, 584}, {126, 4, 232}, {126, 32, 120},
		{127, 0, 604}, {127, 4, 248}, {127, 32, 136},
		{128, 0, 609}, {128, 4, 257}, {128, 32, 145},
		{255, 0, 1196}, {255, 4, 472}, {255, 32, 248},
		{1000, 0, 4629}, {1000, 4, 1769}, {1000, 32, 897},
		{4096, 0, 18961}, {4096, 4, 7233}, {4096, 32, 3649},
	} {
		text := randomText(rand.New(rand.NewSource(int64(tc.n))), tc.n)
		if got := Build(text, Options{SASampleRate: tc.rate}).SizeBytes(); got != tc.want {
			t.Errorf("n=%d rate=%d: SizeBytes = %d want %d", tc.n, tc.rate, got, tc.want)
		}
	}
}

func TestExtendLeftDoesNotAllocate(t *testing.T) {
	text := randomText(rand.New(rand.NewSource(15)), 5000)
	ix := Build(text, Options{})
	lo, hi := ix.Start()
	allocs := testing.AllocsPerRun(100, func() {
		for _, c := range text[:12] {
			lo, hi = ix.ExtendLeft(c, lo, hi)
		}
		lo, hi = ix.Start()
	})
	if allocs != 0 {
		t.Errorf("ExtendLeft allocates %.0f times per run", allocs)
	}
}

var sinkLo, sinkHi int

// BenchmarkExtendLeft times one backward-search step on an index too
// large for the cache (4 Mbp: 2 MB of rank blocks), walking 20-base
// patterns drawn from all over the text so successive steps land in
// unrelated blocks, as they do under the DP seed selector.
func BenchmarkExtendLeft(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	text := randomText(rng, 4<<20)
	ix := Build(text, Options{})
	const plen = 20
	starts := make([]int, 1024)
	for i := range starts {
		starts[i] = rng.Intn(len(text) - plen)
	}
	b.ResetTimer()
	lo, hi := ix.Start()
	for i := 0; i < b.N; i++ {
		if i%plen == 0 {
			lo, hi = ix.Start()
		}
		p := text[starts[i/plen%len(starts)]:]
		lo, hi = ix.ExtendLeft(p[plen-1-i%plen], lo, hi)
	}
	sinkLo, sinkHi = lo, hi
}
