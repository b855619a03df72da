package mapper_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/mapper"
	"repro/internal/sam"
	"repro/internal/simulate"
)

type world struct {
	ref     []byte
	set     simulate.ReadSet
	mappers map[string]mapper.Mapper
}

func buildWorld(t *testing.T, refLen, nReads int, prof simulate.ReadProfile) *world {
	t.Helper()
	ref := simulate.Reference(simulate.Chr21Like(refLen, 21))
	set, err := simulate.Reads(ref, nReads, prof, 22)
	if err != nil {
		t.Fatal(err)
	}
	ms, errs := newMappers(ref)
	if err := errors.Join(errs[:]...); err != nil {
		t.Fatal(err)
	}
	w := &world{ref: ref, set: set, mappers: map[string]mapper.Mapper{}}
	for _, m := range ms {
		w.mappers[m.Name()] = m
	}
	return w
}

func TestSAMRoundTripAccuracyPipeline(t *testing.T) {
	// End-to-end plumbing of cmd/accuracy: map with gold + candidate,
	// serialise both to SAM, parse back, group, and score. The metrics
	// computed from the SAM files must equal those computed in memory.
	w := buildWorld(t, 25_000, 40, simulate.ERR012100)
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 100}
	gold, err := w.mappers["RazerS3"].Map(w.set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	test, err := w.mappers["Yara"].Map(w.set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	toSAM := func(res *mapper.Result) map[string][]mapper.Mapping {
		var buf bytes.Buffer
		sw, err := sam.NewMultiWriter(&buf, []sam.RefSeq{{Name: "ref", Length: len(w.ref)}})
		if err != nil {
			t.Fatal(err)
		}
		for i, ms := range res.Mappings {
			alns := make([]sam.Alignment, len(ms))
			for j, m := range ms {
				alns[j] = sam.Alignment{RName: "ref", Pos: m.Pos, Strand: m.Strand, Dist: m.Dist, MAPQ: 255}
			}
			if err := sw.WriteAlignments(fmt.Sprintf("r%04d", i), nil, alns); err != nil {
				t.Fatal(err)
			}
		}
		sw.Flush()
		recs, err := sam.Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return sam.GroupByRead(recs)
	}
	goldSAM := toSAM(gold)
	testSAM := toSAM(test)

	goldLists := make([][]mapper.Mapping, len(w.set.Reads))
	testLists := make([][]mapper.Mapping, len(w.set.Reads))
	for i := range w.set.Reads {
		name := fmt.Sprintf("r%04d", i)
		goldLists[i] = goldSAM[name]
		testLists[i] = testSAM[name]
	}
	viaSAM := eval.AccuracyAll(goldLists, testLists, int32(opt.MaxErrors))
	direct := eval.AccuracyAll(gold.Mappings, test.Mappings, int32(opt.MaxErrors))
	if math.Abs(viaSAM-direct) > 1e-9 {
		t.Errorf("accuracy via SAM %v != in-memory %v", viaSAM, direct)
	}
	anyBest := eval.AccuracyAnyBest(goldLists, testLists, int32(opt.MaxErrors))
	if anyBest < direct {
		t.Errorf("any-best %v below all-locations %v for the same output", anyBest, direct)
	}
}
