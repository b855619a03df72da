// Package qgram provides a q-gram position index over a DNA text: every
// occurrence position of every length-q substring, grouped by gram. It is
// the substrate of the hashing-based mappers in the paper's comparison
// (RazerS3's SWIFT-style counting filter and Hobbes3's signature
// selection), which the paper contrasts with the FM-index mappers.
package qgram

import (
	"fmt"
	"sync"
)

// MaxQ bounds the gram length so the bucket directory stays addressable
// (4^q int32 entries).
const MaxQ = 12

// Index maps q-grams to their sorted occurrence positions.
type Index struct {
	q      int
	n      int
	starts []int32 // bucket boundaries, len 4^q + 1
	pos    []int32 // positions grouped by gram, each group ascending
}

// Hash packs q base codes into the bucket number of the gram.
func Hash(codes []byte) uint32 {
	var h uint32
	for _, c := range codes {
		h = h<<2 | uint32(c)
	}
	return h
}

// Build indexes every q-gram of text (base codes 0..3).
func Build(text []byte, q int) (*Index, error) {
	if q < 1 || q > MaxQ {
		return nil, fmt.Errorf("qgram: q=%d out of range 1..%d", q, MaxQ)
	}
	n := len(text)
	buckets := 1 << uint(2*q)
	ix := &Index{q: q, n: n, starts: make([]int32, buckets+1)}
	if n < q {
		ix.pos = []int32{}
		return ix, nil
	}
	nGrams := n - q + 1
	mask := uint32(buckets - 1)
	// Pass 1: count.
	h := Hash(text[:q])
	ix.starts[h+1]++
	for i := 1; i < nGrams; i++ {
		h = (h<<2 | uint32(text[i+q-1])) & mask
		ix.starts[h+1]++
	}
	for b := 1; b <= buckets; b++ {
		ix.starts[b] += ix.starts[b-1]
	}
	// Pass 2: place. Scanning left to right keeps each bucket ascending.
	ix.pos = make([]int32, nGrams)
	next := make([]int32, buckets)
	copy(next, ix.starts[:buckets])
	h = Hash(text[:q])
	ix.pos[next[h]] = 0
	next[h]++
	for i := 1; i < nGrams; i++ {
		h = (h<<2 | uint32(text[i+q-1])) & mask
		ix.pos[next[h]] = int32(i)
		next[h]++
	}
	return ix, nil
}

// Len returns the indexed text length.
func (ix *Index) Len() int { return ix.n }

// Positions returns the ascending occurrence positions of the gram with
// the given hash. The slice aliases index storage; do not modify it.
func (ix *Index) Positions(h uint32) []int32 {
	return ix.pos[ix.starts[h]:ix.starts[h+1]]
}

// Count returns the occurrence count of the gram without materialising
// the positions.
func (ix *Index) Count(h uint32) int {
	return int(ix.starts[h+1] - ix.starts[h])
}

// SizeBytes reports the index memory footprint for device accounting.
func (ix *Index) SizeBytes() int64 {
	return int64(len(ix.starts)+len(ix.pos)) * 4
}

// Cache builds the q-gram indexes of one text on demand, one per gram
// length, and shares them between concurrent callers.
type Cache struct {
	text []byte
	maxQ int

	mu      sync.Mutex
	indexes map[int]*Index // guarded by mu
}

// NewCache returns an empty cache over text. maxQ caps the gram length a
// mapper should ask for: 0 means 11, a chromosome-scale default, and
// larger values clamp to MaxQ.
func NewCache(text []byte, maxQ int) *Cache {
	if maxQ <= 0 {
		maxQ = 11
	}
	return &Cache{text: text, maxQ: min(maxQ, MaxQ), indexes: map[int]*Index{}}
}

// MaxQ returns the gram-length cap.
func (c *Cache) MaxQ() int { return c.maxQ }

// Get returns the index for gram length q, building it on first use.
// Builders are serialised, so a gram length is built once.
func (c *Cache) Get(q int) (*Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ix, ok := c.indexes[q]; ok {
		return ix, nil
	}
	ix, err := Build(c.text, q)
	if err != nil {
		return nil, err
	}
	c.indexes[q] = ix
	return ix, nil
}
