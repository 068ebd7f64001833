package checkpoint

import (
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/sim"
	"rowsim/internal/workload"
)

// realSnap captures a mid-run snapshot from a real system, so the
// round-trip tests exercise populated ROBs, MSHRs and mesh traffic
// rather than a quiesced zero state.
func realSnap(t *testing.T) *sim.SysSnap {
	t.Helper()
	cfg := config.Default()
	cfg.NumCores = 2
	cfg.Policy = config.PolicyRoW
	cfg.MaxCycles = 50_000_000
	p := workload.MustGet("sps")
	progs := workload.Generate(p, cfg.NumCores, 4000, 7)
	var captured *sim.SysSnap
	s, err := sim.New(cfg, progs,
		sim.WithWarmFilter(workload.WarmFilter(p)),
		sim.WithCheckpoint(2048, func(cycle uint64, snap *sim.SysSnap) error {
			if captured == nil {
				captured = snap
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("run finished without reaching a checkpoint")
	}
	return captured
}

// tinySnap is a minimal synthetic snapshot: the corruption fuzz flips
// every byte offset, which is quadratic in checkpoint size, so it
// wants the smallest structurally complete file.
func tinySnap() *sim.SysSnap {
	return &sim.SysSnap{Cycle: 4096}
}

func snapEqual(t *testing.T, a, b *sim.SysSnap) {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Fatalf("snapshots differ (%d vs %d bytes)", len(ab), len(bb))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	snap := realSnap(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, "key1", snap); err != nil {
		t.Fatal(err)
	}
	got, meta, err := Load(path, "key1")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Cycle != snap.Cycle || meta.Key != "key1" || meta.Version != Version {
		t.Fatalf("meta %+v, want cycle %d key %q version %d", meta, snap.Cycle, "key1", Version)
	}
	snapEqual(t, got, snap)
}

func TestLoadKeyMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, "key1", tinySnap()); err != nil {
		t.Fatal(err)
	}
	_, _, err := Load(path, "key2")
	var mm *MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("foreign checkpoint loaded: err=%v", err)
	}
	if mm.Field != "content key" || mm.Got != "key1" || mm.Want != "key2" {
		t.Fatalf("mismatch detail wrong: %+v", mm)
	}
}

func TestLoadVersionMismatch(t *testing.T) {
	// Hand-build checkpoints whose header names another format: the
	// dense Version 1 this format replaced, and one from the future.
	snap := tinySnap()
	data, err := Encode("k", snap)
	if err != nil {
		t.Fatal(err)
	}
	_, meta, err := Decode("x", "k", data)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, Version + 1} {
		meta.Version = v
		// Re-frame with the altered header.
		hdr, _ := json.Marshal(meta)
		body, _ := json.Marshal(snap)
		var buf []byte
		buf = append(buf, magic[:]...)
		buf = appendFrame(buf, hdr)
		buf = appendFrame(buf, body)
		var mm *MismatchError
		if _, _, err := Decode("x", "k", buf); !errors.As(err, &mm) || mm.Field != "version" {
			t.Fatalf("version-%d checkpoint accepted by a version-%d reader: err=%v", v, Version, err)
		}
	}
}

// TestCheckpointCarriesOnlyValidLines: an 8-core sps checkpoint with
// Table I caches round-trips, and is under a third of what writing
// every line of every sram array — Version 1's encoding — would take.
func TestCheckpointCarriesOnlyValidLines(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 8
	cfg.Policy = config.PolicyRoW
	p := workload.MustGet("sps")
	progs := workload.Generate(p, cfg.NumCores, 3000, 7)
	var snap *sim.SysSnap
	s, err := sim.New(cfg, progs,
		sim.WithWarmFilter(workload.WarmFilter(p)),
		sim.WithCheckpoint(1024, func(_ uint64, sn *sim.SysSnap) error {
			snap = sn
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("run finished without reaching a checkpoint")
	}
	data, err := Encode("k", snap)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode("x", "k", data)
	if err != nil {
		t.Fatal(err)
	}
	snapEqual(t, got, snap)

	// A lower bound on the dense encoding: this file, plus one zero
	// record for every line the arrays have room for and do not hold.
	capacity := func(l config.CacheLevel) int { return l.SizeBytes / cfg.Mem.LineBytes }
	room := cfg.NumCores*(capacity(cfg.Mem.L1I)+capacity(cfg.Mem.L1D)+capacity(cfg.Mem.L2)) +
		cfg.Mem.L3Banks*capacity(cfg.Mem.L3)
	held := 0
	for _, c := range snap.Cores {
		held += len(c.L1I.Lines)
	}
	for _, c := range snap.Caches {
		held += len(c.L1.Lines) + len(c.L2.Lines)
	}
	for _, d := range snap.Dirs {
		held += len(d.L3.Lines)
	}
	if held == 0 || held*10 > room {
		t.Fatalf("checkpoint holds %d of %d lines; the cell is meant to be warm and sparse", held, room)
	}
	dense := len(data) + (room-held)*len(`{"Valid":false,"Tag":0,"Meta":0,"LRU":0},`)
	if 3*len(data) >= dense {
		t.Fatalf("checkpoint is %d bytes, dense encoding at least %d: want under a third", len(data), dense)
	}
	t.Logf("checkpoint %d bytes for %d valid lines of %d; dense encoding >= %d bytes", len(data), held, room, dense)
}

func TestRotationKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	s1, s2 := tinySnap(), tinySnap()
	s2.Cycle = 8192
	if err := Save(path, "k", s1); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, "k", s2); err != nil {
		t.Fatal(err)
	}
	if _, meta, err := Load(path, "k"); err != nil || meta.Cycle != 8192 {
		t.Fatalf("primary load: meta=%+v err=%v", meta, err)
	}
	// Destroy the primary: Load must fall back to the previous one.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, meta, err := Load(path, "k")
	if err != nil {
		t.Fatalf("fallback load failed: %v", err)
	}
	if meta.Cycle != 4096 {
		t.Fatalf("fallback returned cycle %d, want 4096", meta.Cycle)
	}
	snapEqual(t, got, s1)
}

func TestLoadMissing(t *testing.T) {
	_, _, err := Load(filepath.Join(t.TempDir(), "absent.ckpt"), "k")
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing checkpoint: err=%v, want ErrNotExist", err)
	}
}

func TestRemove(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := Save(path, "k", tinySnap()); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, "k", tinySnap()); err != nil {
		t.Fatal(err)
	}
	if err := Remove(path); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("files left after Remove: %v", left)
	}
	if err := Remove(path); err != nil {
		t.Fatalf("Remove of removed lineage: %v", err)
	}
}

func appendFrame(buf, payload []byte) []byte {
	ln := uint32(len(payload))
	buf = append(buf, byte(ln), byte(ln>>8), byte(ln>>16), byte(ln>>24))
	buf = append(buf, payload...)
	crc := crc32.Checksum(payload, castagnoli)
	return append(buf, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
}
