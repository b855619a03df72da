// Command mkdata generates the synthetic workloads: a chr21-like
// reference FASTA and simulated read sets in FASTQ, with ground-truth
// origins in a sidecar TSV.
//
// Usage:
//
//	mkdata -ref ref.fa [-len 1000000] [-seed 1]
//	       [-reads reads100.fq -n 10000 -readlen 100]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/dna"
	"repro/internal/fastx"
	"repro/internal/simulate"
)

func main() {
	refPath := flag.String("ref", "", "output reference FASTA path (required)")
	refLen := flag.Int("len", 1_000_000, "reference length in bp")
	seed := flag.Int64("seed", 1, "generation seed")
	readsPath := flag.String("reads", "", "optional output FASTQ path for simulated reads")
	nReads := flag.Int("n", 10_000, "number of reads to simulate")
	readLen := flag.Int("readlen", 100, "read length: 100 (ERR012100-like) or 150 (SRR826460-like)")
	flag.Parse()

	if err := run(*refPath, *refLen, *seed, *readsPath, *nReads, *readLen); err != nil {
		fmt.Fprintln(os.Stderr, "mkdata:", err)
		os.Exit(1)
	}
}

func run(refPath string, refLen int, seed int64, readsPath string, nReads, readLen int) error {
	if refPath == "" {
		return fmt.Errorf("-ref is required")
	}
	if refLen <= 0 {
		return fmt.Errorf("-len must be positive, got %d", refLen)
	}
	if nReads <= 0 {
		return fmt.Errorf("-n must be positive, got %d", nReads)
	}
	ref := simulate.Reference(simulate.Chr21Like(refLen, seed))
	f, err := os.Create(refPath)
	if err != nil {
		return err
	}
	rec := fastx.Record{Name: fmt.Sprintf("chr21sim len=%d seed=%d", refLen, seed), Seq: []byte(dna.Decode(ref))}
	if err := fastx.WriteFasta(f, []fastx.Record{rec}, 70); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bp)\n", refPath, refLen)

	if readsPath == "" {
		return nil
	}
	var prof simulate.ReadProfile
	switch readLen {
	case 100:
		prof = simulate.ERR012100
	case 150:
		prof = simulate.SRR826460
	default:
		return fmt.Errorf("-readlen must be 100 or 150, got %d", readLen)
	}
	set, err := simulate.Reads(ref, nReads, prof, seed+int64(readLen))
	if err != nil {
		return err
	}
	recs := make([]fastx.Record, len(set.Reads))
	for i, r := range set.Reads {
		recs[i] = fastx.Record{
			Name: fmt.Sprintf("%s.%d", prof.Name, i),
			Seq:  []byte(dna.Decode(r)),
		}
	}
	rf, err := os.Create(readsPath)
	if err != nil {
		return err
	}
	if err := fastx.WriteFastq(rf, recs); err != nil {
		rf.Close()
		return err
	}
	if err := rf.Close(); err != nil {
		return err
	}

	truthPath := readsPath + ".truth.tsv"
	tf, err := os.Create(truthPath)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(tf)
	fmt.Fprintln(bw, "read\tpos\tstrand\tedits")
	for i, o := range set.Origins {
		fmt.Fprintf(bw, "%s.%d\t%d\t%c\t%d\n", prof.Name, i, o.Pos, o.Strand, o.Edits)
	}
	if err := bw.Flush(); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d reads, %s profile) and %s\n", readsPath, nReads, prof.Name, truthPath)
	return nil
}
