// Filtration demo: reproduces the ideas of the paper's Fig. 1 and Fig. 2
// on a live read — the pigeonhole k-mers with their candidate counts for
// a uniform split versus the optimal dividers the REPUTE DP finds, plus
// the iteration/backtracking structure of the memory-optimised DP.
//
//	go run ./examples/filtration
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/dna"
	"repro/internal/fmindex"
	"repro/internal/seed"
	"repro/internal/simulate"
)

func main() {
	const (
		n     = 100 // read length, as in Fig. 1
		delta = 5   // errors, as in Fig. 1
		smin  = 14
	)
	// A repetitive reference makes seed frequencies interesting.
	ref := simulate.Reference(simulate.Chr21Like(200_000, 3))
	ix := fmindex.Build(ref, fmindex.Options{})

	// Take a read straight out of a repeat-rich region.
	read := pickRepetitiveRead(ix, ref, n)

	fmt.Printf("Fig. 1 — pigeonhole principle for (n=%d, δ=%d): %d k-mers\n\n", n, delta, delta+1)
	params := seed.Params{Errors: delta, MinSeedLen: smin}

	uni, err := seed.Uniform{}.Select(ix, read, params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("uniform dividers (equal-length k-mers):")
	drawSeeds(read, uni.Seeds)
	fmt.Printf("total candidate locations: %d\n\n", uni.TotalCandidates)

	rep, err := seed.REPUTE{}.Select(ix, read, params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal dividers (REPUTE DP, Smin=%d):\n", smin)
	drawSeeds(read, rep.Seeds)
	fmt.Printf("total candidate locations: %d  (%.1fx fewer than uniform)\n\n",
		rep.TotalCandidates, ratio(uni.TotalCandidates, rep.TotalCandidates))

	fmt.Printf("Fig. 2 — the DP runs δ=%d iterations over an exploration space of %d prefixes\n",
		delta, n-smin*(delta+1)+1)
	fmt.Printf("(window = n − Smin·(δ+1) + 1), then backtracks to recover all dividers.\n")
	fmt.Printf("accounting: %d FM-index steps, %d DP cells, %d B selector working set\n",
		rep.FMSteps, rep.DPCells, rep.PeakMemBytes)

	oss, err := seed.OSS{}.Select(ix, read, seed.Params{Errors: delta})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull OSS for contrast: %d candidates, %d DP cells, %d B working set\n",
		oss.TotalCandidates, oss.DPCells, oss.PeakMemBytes)
	fmt.Printf("REPUTE keeps %.0f%% of the optimum at %.0f%% of the memory.\n",
		100*ratio(oss.TotalCandidates, rep.TotalCandidates),
		100*float64(rep.PeakMemBytes)/float64(oss.PeakMemBytes))
}

// pickRepetitiveRead scans for the read window where optimal dividers
// beat the uniform split the most — typically a read straddling a repeat
// boundary, the case the paper's Fig. 1 illustrates.
func pickRepetitiveRead(ix *fmindex.Index, ref []byte, n int) []byte {
	params := seed.Params{Errors: 5, MinSeedLen: 14}
	best := ref[:n]
	bestGain := -1.0
	for pos := 0; pos+n < len(ref); pos += 977 {
		read := ref[pos : pos+n]
		uni, err1 := seed.Uniform{}.Select(ix, read, params)
		rep, err2 := seed.REPUTE{}.Select(ix, read, params)
		if err1 != nil || err2 != nil || uni.TotalCandidates < 50 {
			continue
		}
		gain := float64(uni.TotalCandidates) / float64(rep.TotalCandidates+1)
		if gain > bestGain {
			best, bestGain = read, gain
		}
	}
	return best
}

func drawSeeds(read []byte, seeds []seed.Seed) {
	var line1, line2 strings.Builder
	for _, s := range seeds {
		line1.WriteString("|" + dna.Decode(read[s.Start:s.End]))
		cell := fmt.Sprintf("|k=%d c=%d", s.Len(), s.Count())
		line2.WriteString(cell + strings.Repeat(" ", max(0, s.Len()+1-len(cell))))
	}
	fmt.Println(line1.String() + "|")
	fmt.Println(line2.String() + "|")
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
