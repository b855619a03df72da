package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cl"
	"repro/internal/mapper"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	st := &State{
		Version:       Version,
		Fingerprint:   "abc123",
		BatchSize:     64,
		Batches:       3,
		Reads:         192,
		Offset:        40961,
		Line:          768,
		RNGDraws:      17,
		SAMBytes:      99182,
		Mapped:        180,
		Locations:     411,
		Dropped:       2,
		SimSeconds:    1.25,
		EnergyJ:       3.5,
		DeviceSeconds: map[string]float64{"cpu": 1.25},
		Faults: mapper.FaultStats{
			Retries:        2,
			SkippedRecords: 1,
			SkipReasons:    map[string]int{"length-mismatch": 1},
		},
		FaultOrdinals: map[string]cl.FaultOrdinals{"cpu": {Enqueues: 7, Allocs: 21}},
	}
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	if err := Save(path, got); err != nil {
		t.Fatal(err)
	}
	b2, _ := os.ReadFile(path)
	if !bytes.Equal(b1, b2) {
		t.Error("save is not deterministic: re-saving a loaded state changed the bytes")
	}
	if got.Offset != st.Offset || got.RNGDraws != st.RNGDraws || got.SAMBytes != st.SAMBytes {
		t.Errorf("round-trip lost position state: %+v", got)
	}
	if got.FaultOrdinals["cpu"] != st.FaultOrdinals["cpu"] {
		t.Errorf("round-trip lost fault ordinals: %+v", got.FaultOrdinals)
	}
	if got.Faults.SkipReasons["length-mismatch"] != 1 {
		t.Errorf("round-trip lost skip reasons: %+v", got.Faults)
	}
}

func TestLoadRejectsUnknownVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, &State{Version: Version + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("newer format version must be rejected")
	}
}

// TestLoadRejectsImpossibleState corrupts one field of a valid state at
// a time: Load must refuse every state Save cannot have written and name
// the field, and accept the boundary cases Save can write.
func TestLoadRejectsImpossibleState(t *testing.T) {
	valid := func() *State {
		return &State{Version: Version, Fingerprint: "f", BatchSize: 100, Batches: 1,
			Reads: 100, Offset: 25_000, Line: 400, RNGDraws: 3, Offset2: 25_000, Line2: 400,
			SAMBytes: 30_000, Mapped: 90, Locations: 300, Dropped: 1, Concordant: 40}
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*State)
		field   string // "" means the state is valid
	}{
		{"valid", func(*State) {}, ""},
		{"draws equal offset", func(st *State) { st.RNGDraws, st.RNGDraws2 = 25_000, 25_000 }, ""},
		{"fresh", func(st *State) { *st = State{Version: Version} }, ""},
		{"negative batches", func(st *State) { st.Batches = -1 }, "batches"},
		{"negative reads", func(st *State) { st.Reads = -50 }, "reads"},
		{"negative offset", func(st *State) { st.Offset, st.RNGDraws = -1, 0 }, "offset"},
		{"negative line", func(st *State) { st.Line = -1 }, "line"},
		{"negative offset2", func(st *State) { st.Offset2 = -7 }, "offset2"},
		{"negative line2", func(st *State) { st.Line2 = -2 }, "line2"},
		{"negative sam_bytes", func(st *State) { st.SAMBytes = -1 }, "sam_bytes"},
		{"negative mapped", func(st *State) { st.Mapped = -1 }, "mapped"},
		{"negative locations", func(st *State) { st.Locations = -1 }, "locations"},
		{"negative dropped", func(st *State) { st.Dropped = -1 }, "dropped"},
		{"negative concordant", func(st *State) { st.Concordant = -1 }, "concordant"},
		{"negative sim_seconds", func(st *State) { st.SimSeconds = -0.5 }, "sim_seconds"},
		{"draws past offset", func(st *State) { st.RNGDraws = 18_000_000_000_000_000_000 }, "rng_draws"},
		{"draws2 past offset2", func(st *State) { st.RNGDraws2 = 25_001 }, "rng_draws2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			st := valid()
			tc.corrupt(st)
			if err := Save(path, st); err != nil {
				t.Fatal(err)
			}
			_, err := Load(path)
			switch {
			case tc.field == "" && err != nil:
				t.Errorf("valid state refused: %v", err)
			case tc.field == "":
			case err == nil:
				t.Errorf("state with a corrupt %s accepted", tc.field)
			case !strings.Contains(err.Error(), ": "+tc.field+" "):
				t.Errorf("error %q does not name %s", err, tc.field)
			}
		})
	}
}

// FuzzCheckpointLoad holds the decoder Load runs on a file's bytes to
// three properties: it never panics, every state it accepts satisfies the
// invariants Save's states hold, and encoding (the bytes Save writes) a
// decoded state is a fixed point — encode, decode again and encode again
// give the same bytes. The seeds are checkpoints `repute map -batch N
// -checkpoint` saved mid-run (killed with REPUTE_KILL_AFTER_BATCH):
// fault-free, under the CI chaos plan (fault ordinals), paired, and a
// lenient run failing over a lost device (skip reasons, failed devices).
func FuzzCheckpointLoad(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.ckpt"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed checkpoints in testdata: %v", err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := decode(b); err != nil {
			f.Fatalf("seed %s refused: %v", path, err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"version": 1, "reads": -50}`))
	f.Add([]byte(`{"version": 1, "offset": 10, "rng_draws": 18000000000000000000}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := decode(b)
		if err != nil {
			return
		}
		if st.Version != Version {
			t.Fatalf("accepted version %d", st.Version)
		}
		for _, v := range []int64{int64(st.Batches), int64(st.Reads), st.Offset, int64(st.Line),
			st.Offset2, int64(st.Line2), st.SAMBytes, int64(st.Mapped), int64(st.Locations),
			int64(st.Dropped), int64(st.Concordant)} {
			if v < 0 {
				t.Fatalf("accepted a negative count or offset: %+v", st)
			}
		}
		if st.SimSeconds < 0 {
			t.Fatalf("accepted negative sim_seconds: %+v", st)
		}
		if st.RNGDraws > uint64(st.Offset) || st.RNGDraws2 > uint64(st.Offset2) {
			t.Fatalf("accepted more draws than input bytes: %+v", st)
		}
		b1, err := encode(st)
		if err != nil {
			t.Fatalf("accepted state does not encode: %v", err)
		}
		st2, err := decode(b1)
		if err != nil {
			t.Fatalf("encoded state refused: %v\n%s", err, b1)
		}
		b2, err := encode(st2)
		if err != nil || !bytes.Equal(b1, b2) {
			t.Fatalf("encoding is not a fixed point (%v):\n%s\n%s", err, b1, b2)
		}
	})
}

func TestVerifyMismatchIsTyped(t *testing.T) {
	st := &State{Fingerprint: "old"}
	err := st.Verify("new")
	var me *MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("want *MismatchError, got %v", err)
	}
	if me.Got != "old" || me.Want != "new" {
		t.Errorf("mismatch fields: %+v", me)
	}
	if err := st.Verify("old"); err != nil {
		t.Errorf("matching fingerprint must verify: %v", err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	digest := sha256.Sum256([]byte("index"))
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 100}

	base := FingerprintDigest(digest, opt, "selector=dp")
	if base != FingerprintDigest(digest, opt, "selector=dp") {
		t.Error("fingerprint is not deterministic")
	}
	// Defaulted and explicit-default options must hash identically: a
	// resume that spells out the defaults is not a different run.
	if FingerprintDigest(digest, opt.WithDefaults(), "selector=dp") != base {
		t.Error("explicit default options changed the fingerprint")
	}

	o := opt
	o.MaxErrors = 5
	for name, got := range map[string]string{
		"options": FingerprintDigest(digest, o, "selector=dp"),
		"extras":  FingerprintDigest(digest, opt, "selector=coral"),
		"index":   FingerprintDigest(sha256.Sum256([]byte("index2")), opt, "selector=dp"),
	} {
		if got == base {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
}

// TestFingerprintGolden pins the fingerprint to the strings the last
// binary with configurable retries computed (commit 8bdaa10), so a
// checkpoint it wrote against an index artifact still resumes.
func TestFingerprintGolden(t *testing.T) {
	var digest [32]byte
	for i := range digest {
		digest[i] = byte(i)
	}
	if got, want := FingerprintDigest(digest, mapper.Options{}), "854082a359baa8713a0b94ba91c286e2"; got != want {
		t.Errorf("default options: fingerprint %s, want %s", got, want)
	}
	opt := mapper.Options{MaxErrors: 4, Prefilter: mapper.PrefilterGateKeeper}
	if got, want := FingerprintDigest(digest, opt, "selector=repute-dp", "batch=256"), "b661197acd14654f515364c9931c8687"; got != want {
		t.Errorf("options and extras: fingerprint %s, want %s", got, want)
	}
}

func TestSaveIsAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, &State{Version: Version, Fingerprint: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, &State{Version: Version, Fingerprint: "b", Batches: 1}); err != nil {
		t.Fatal(err)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fingerprint != "b" {
		t.Errorf("overwrite lost the newer state: %+v", st)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind after rename")
	}
}

func TestCheckDir(t *testing.T) {
	t.Run("good", func(t *testing.T) {
		if err := CheckDir(t.TempDir()); err != nil {
			t.Fatalf("CheckDir on a writable temp dir: %v", err)
		}
	})

	t.Run("missing", func(t *testing.T) {
		err := CheckDir(filepath.Join(t.TempDir(), "nope"))
		var de *DirError
		if !errors.As(err, &de) {
			t.Fatalf("err = %v, want *DirError", err)
		}
		if !os.IsNotExist(de.Err) {
			t.Errorf("cause = %v, want not-exist", de.Err)
		}
	})

	t.Run("not a directory", func(t *testing.T) {
		file := filepath.Join(t.TempDir(), "plain")
		if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := CheckDir(file)
		var de *DirError
		if !errors.As(err, &de) {
			t.Fatalf("err = %v, want *DirError", err)
		}
		if de.Dir != file {
			t.Errorf("DirError.Dir = %q, want %q", de.Dir, file)
		}
	})

	t.Run("probe leaves no residue", func(t *testing.T) {
		dir := t.TempDir()
		if err := CheckDir(dir); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Errorf("probe left %d entries behind", len(ents))
		}
	})
}

// TestSaveSyncsDirectory can't force a power cut, but it can at least
// pin that Save still works when the parent directory requires an
// explicit open to sync — and that a Save into a directory removed
// out from under it fails rather than silently dropping durability.
func TestSaveSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := Save(path, &State{Version: Version, Fingerprint: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}

	gone := filepath.Join(dir, "sub")
	if err := os.Mkdir(gone, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(gone); err != nil {
		t.Fatal(err)
	}
	if err := Save(filepath.Join(gone, "run.ckpt"), &State{Version: Version}); err == nil {
		t.Error("Save into a removed directory succeeded")
	}
}
