package mapper_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/mapper"
	"repro/internal/simulate"
)

// TestMain drops every inherited REPUTE_* hook, as internal/serve's does:
// the REPUTE and CORAL rows of the golden table go through core.Map, which
// arms an exported chaos plan (CI's REPUTE_CL_FAULTS), and a retry's
// backoff would land in the pinned SimSeconds.
func TestMain(m *testing.M) {
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "REPUTE_") {
			os.Unsetenv(name)
		}
	}
	os.Exit(m.Run())
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_mappers.json from the current code")

const goldenPath = "testdata/golden_mappers.json"

// goldenRow is everything a mapper run must reproduce bit for bit: the
// mappings (as a digest), the eight weighted cl.Cost fields, and the
// simulated time and energy derived from them. The observability tallies
// (Candidates, Verified, Filtered, FalseAccepts) carry no weight and are
// deliberately left out.
type goldenRow struct {
	Mappings    string  `json:"mappings_sha256"`
	FMSteps     int64   `json:"fm_steps"`
	DPCells     int64   `json:"dp_cells"`
	VerifyWords int64   `json:"verify_words"`
	FilterWords int64   `json:"filter_words"`
	HashProbes  int64   `json:"hash_probes"`
	LocateSteps int64   `json:"locate_steps"`
	Bytes       int64   `json:"bytes"`
	Items       int64   `json:"items"`
	SimSeconds  float64 `json:"sim_seconds"`
	EnergyJ     float64 `json:"energy_j"`
}

func goldenOf(res *mapper.Result) goldenRow {
	h := sha256.New()
	for _, ms := range res.Mappings {
		binary.Write(h, binary.LittleEndian, int32(len(ms)))
		for _, m := range ms {
			binary.Write(h, binary.LittleEndian, m.Pos)
			h.Write([]byte{m.Strand, m.Dist})
		}
	}
	c := res.Cost
	return goldenRow{
		Mappings: hex.EncodeToString(h.Sum(nil)),
		FMSteps:  c.FMSteps, DPCells: c.DPCells, VerifyWords: c.VerifyWords,
		FilterWords: c.FilterWords, HashProbes: c.HashProbes, LocateSteps: c.LocateSteps,
		Bytes: c.Bytes, Items: c.Items,
		SimSeconds: res.SimSeconds, EnergyJ: res.EnergyJ,
	}
}

// TestAllMappersSerialParallelDeterminism is the behaviour pin of the map
// path: every mapper — REPUTE and CORAL via core plus the five baselines
// — at δ ∈ {0, 4} must reproduce the golden row recorded in testdata
// (mappings digest, weighted cost, simulated seconds and joules), mapping
// each row once; TestMapperEquivalence holds serial ≡ parallel. Regenerate
// with `go test ./internal/mapper -run Determinism -update` only when a
// change to the numbers is intended and explained.
func TestAllMappersSerialParallelDeterminism(t *testing.T) {
	w := buildWorld(t, 30_000, 60, simulate.ERR012100)
	golden := map[string]goldenRow{}
	if !*updateGolden {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
	}

	for name, m := range w.mappers {
		t.Run(name, func(t *testing.T) {
			for _, delta := range []int{0, 4} {
				key := fmt.Sprintf("%s/e%d", name, delta)
				res, err := m.Map(w.set.Reads, mapper.Options{MaxErrors: delta, MaxLocations: 100})
				if err != nil {
					t.Fatal(err)
				}
				got := goldenOf(res)
				if *updateGolden {
					golden[key] = got
				}
				want, ok := golden[key]
				if !ok {
					t.Fatalf("%s: no golden row (run with -update)", key)
				}
				if got != want {
					t.Errorf("%s:\n got  %+v\n want %+v", key, got, want)
				}
			}
		})
	}
	if *updateGolden {
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
