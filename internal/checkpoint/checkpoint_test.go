package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"

	"rowsim/internal/coherence"
	"rowsim/internal/config"
	"rowsim/internal/faults"
	"rowsim/internal/interconnect"
	"rowsim/internal/sim"
	"rowsim/internal/workload"
)

// spsSystem builds sps under RoW on the given number of cores: the
// system the snapshots of these tests are taken from and restored into.
func spsSystem(t testing.TB, cores, instrs int, opts ...sim.Option) *sim.System {
	t.Helper()
	cfg := config.Default()
	cfg.NumCores = cores
	cfg.Policy = config.PolicyRoW
	cfg.MaxCycles = 50_000_000
	p := workload.MustGet("sps")
	s, err := sim.New(cfg, workload.Generate(p, cores, instrs, 7), append(opts, sim.WithWarmFilter(workload.WarmFilter(p)))...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// midRunSnap runs spsSystem with a checkpoint every `every` cycles and
// returns the first (first == true) or the last snapshot taken, so the
// round-trip tests exercise populated ROBs, MSHRs and mesh traffic
// rather than a quiesced zero state.
func midRunSnap(t testing.TB, cores, instrs int, every uint64, first bool, opts ...sim.Option) *sim.SysSnap {
	t.Helper()
	var captured *sim.SysSnap
	s := spsSystem(t, cores, instrs, append(opts, sim.WithCheckpoint(every, func(_ uint64, snap *sim.SysSnap) error {
		if captured == nil || !first {
			captured = snap
		}
		return nil
	}))...)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("run finished without reaching a checkpoint")
	}
	return captured
}

// realSnap is a 2-core mid-run snapshot; realSystem builds a fresh
// system it restores into.
func realSnap(t testing.TB) *sim.SysSnap {
	t.Helper()
	return midRunSnap(t, 2, 4000, 2048, true)
}

func realSystem(t testing.TB) *sim.System {
	t.Helper()
	return spsSystem(t, 2, 4000)
}

// tinySnap is a minimal synthetic snapshot: the corruption fuzz flips
// every byte offset, which is quadratic in checkpoint size, so it
// wants the smallest structurally complete file.
func tinySnap() *sim.SysSnap {
	return &sim.SysSnap{Cycle: 4096}
}

func mustEncode(t testing.TB, snap *sim.SysSnap) []byte {
	t.Helper()
	data, err := Encode("k", snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// snapEqual compares two snapshots by their encodings. Encode is a
// function of the state (TestEncodeIsAFunctionOfTheState), so equal
// bytes are equal state; comparing the structs themselves would trip
// over the one thing a round trip changes, an empty slice decoding as
// nil, which every Restore treats alike.
func snapEqual(t *testing.T, a, b *sim.SysSnap) {
	t.Helper()
	if ab, bb := mustEncode(t, a), mustEncode(t, b); !bytes.Equal(ab, bb) {
		t.Fatalf("snapshots differ (encodings of %d and %d bytes)", len(ab), len(bb))
	}
}

// TestEncodeIsAFunctionOfTheState: encoding one snapshot twice gives
// the same bytes (nothing in a snapshot is walked in map order), and a
// decoded snapshot encodes to the bytes it was decoded from — the fixed
// point that lets every other test compare snapshots by encoding. The
// snapshot is a mid-run 8-core RoW one with fault injection on, so the
// injector's state and jittered in-flight messages are in it.
func TestEncodeIsAFunctionOfTheState(t *testing.T) {
	snap := midRunSnap(t, 8, 3000, 1024, true,
		sim.WithFaults(faults.Config{Seed: 9, JitterProb: 0.3, JitterMax: 12}))
	if snap.Faults == (faults.InjectorSnap{}) {
		t.Fatal("snapshot carries no fault-injector state")
	}
	data := mustEncode(t, snap)
	if again := mustEncode(t, snap); !bytes.Equal(data, again) {
		t.Fatal("two encodings of one snapshot differ")
	}
	got, _, err := Decode("x", "k", data)
	if err != nil {
		t.Fatal(err)
	}
	if back := mustEncode(t, got); !bytes.Equal(data, back) {
		t.Fatalf("Encode(Decode(Encode(s))) is %d bytes and differs from Encode(s), %d bytes", len(back), len(data))
	}
}

// TestEncodeUsesOneBuffer: Encode allocates the bytes it returns and
// little else — the body is sized before it is written, not grown by
// appends or staged in a second buffer and copied into the file image —
// and appendEncode into the buffer a previous call returned, as a
// Saver's later saves do, allocates a small fraction of it.
func TestEncodeUsesOneBuffer(t *testing.T) {
	snap := realSnap(t)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var data []byte
	if whole := allocated(func() { data = mustEncode(t, snap) }); whole > uint64(len(data))*5/4 {
		t.Fatalf("Encode allocated %d bytes for a %d-byte checkpoint, want at most 1.25x", whole, len(data))
	}
	again := allocated(func() {
		var err error
		if data, err = appendEncode(data[:0], "k", snap); err != nil {
			t.Fatal(err)
		}
	})
	if again > uint64(len(data))/16 {
		t.Fatalf("appendEncode into a %d-byte buffer allocated %d bytes, want at most 1/16 of it", cap(data), again)
	}
}

// TestEncodeIntoAnyRoom: appendEncode writes the bytes Encode returns
// whatever room its buffer has. The capacities run from none to past
// the file's end, a byte at a time over its last 64 bytes, so the body
// overflows its buffer inside every kind of field (a number, a run of
// numbers, raw bytes, an accumulator), or fits it exactly. A Saver's
// saves write those bytes too: the first into no buffer, the second
// overflowing the first's, the third fitting in the second's with room
// to spare.
func TestEncodeIntoAnyRoom(t *testing.T) {
	big, small := realSnap(t), tinySnap()
	want := mustEncode(t, big)
	for room := 0; room <= len(want)+8; room++ {
		if room < len(want)-64 && room%251 != 0 {
			continue
		}
		got, err := appendEncode(make([]byte, 0, room), "k", big)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appendEncode into %d bytes of room wrote %d bytes unlike Encode's %d", room, len(got), len(want))
		}
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	save := Saver(path, "k")
	for i, snap := range []*sim.SysSnap{small, big, small} {
		if err := save(snap.Cycle, snap); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, mustEncode(t, snap)) {
			t.Fatalf("save %d wrote %d bytes unlike Encode's", i, len(got))
		}
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
	// seven versions this format replaced, and one from the future.
	data := mustEncode(t, tinySnap())
	_, meta, err := Decode("x", "k", data)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 2, 3, 4, 5, 6, 7, Version + 1} {
		meta.Version = v
		// Re-frame with the altered header.
		hdr, _ := json.Marshal(meta)
		var buf []byte
		buf = append(buf, magic[:]...)
		buf = appendFrame(buf, hdr)
		buf = appendFrame(buf, bodyOf(t, data))
		var mm *MismatchError
		if _, _, err := Decode("x", "k", buf); !errors.As(err, &mm) || mm.Field != "version" {
			t.Fatalf("version-%d checkpoint accepted by a version-%d reader: err=%v", v, Version, err)
		}
	}
	// And real ones: files the last Version 2 to 7 builds wrote.
	for _, v := range []string{"2", "3", "4", "5", "6", "7"} {
		var mm *MismatchError
		if _, _, err := Decode("x", "k", mustRead(t, "testdata/v"+v+".ckpt")); !errors.As(err, &mm) || mm.Field != "version" || mm.Got != v {
			t.Fatalf("Version %s file: err=%v, want a version *MismatchError", v, err)
		}
	}
}

// TestCheckpointCarriesOnlyValidLines: an 8-core sps checkpoint with
// Table I caches round-trips and holds the lines that are valid, not a
// record for every line the arrays have room for. The size bound is
// the column-wise format's: this cell was 807 KB as a Version 3 body of
// one struct per line, 3.0 MB as a Version 2 JSON body and at least
// 29.5 MB with every line written, as Version 1 did.
func TestCheckpointCarriesOnlyValidLines(t *testing.T) {
	snap := midRunSnap(t, 8, 3000, 1024, false)
	data := mustEncode(t, snap)
	got, _, err := Decode("x", "k", data)
	if err != nil {
		t.Fatal(err)
	}
	snapEqual(t, got, snap)

	mem := config.Default().Mem
	capacity := func(l config.CacheLevel) int { return l.SizeBytes / mem.LineBytes }
	room := len(snap.Cores)*(capacity(mem.L1I)+capacity(mem.L1D)+capacity(mem.L2)) +
		mem.L3Banks*capacity(mem.L3)
	held := 0
	for _, c := range snap.Cores {
		held += len(c.L1I.Pos)
	}
	for _, c := range snap.Caches {
		held += len(c.L1.Pos) + len(c.L2.Pos)
	}
	for _, d := range snap.Dirs {
		held += len(d.L3.Pos)
	}
	if held == 0 || held*10 > room {
		t.Fatalf("checkpoint holds %d of %d lines; the cell is meant to be warm and sparse", held, room)
	}
	if len(data) > 7<<20/10 {
		t.Fatalf("checkpoint is %d bytes for %d valid lines, want at most 0.7 MB", len(data), held)
	}
	t.Logf("checkpoint %d bytes for %d valid lines of %d", len(data), held, room)
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

// TestFailedSaveLeavesNoTemporary: a Save that cannot rotate (the
// ".prev" slot is occupied by a directory that is not empty) fails
// before it writes, so it leaves no temporary file; the lineage is as
// it was.
func TestFailedSaveLeavesNoTemporary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := Save(path, "k", tinySnap()); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path+PrevSuffix, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, "k", tinySnap()); err == nil {
		t.Fatal("Save rotated a checkpoint onto a non-empty directory")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed Save left its temporary behind: %v", err)
	}
	if _, meta, err := Load(path, "k"); err != nil || meta.Cycle != 4096 {
		t.Fatalf("lineage damaged by a failed Save: meta=%+v err=%v", meta, err)
	}
}

// TestUnwritableCheckpointFailsRun: a checkpoint path whose parent is
// a regular file cannot be created (ENOTDIR; permission bits would not
// stop a root test run). The run stops at its first checkpoint with an
// error naming the cycle, and Save returns the same cause and leaves
// nothing behind.
func TestUnwritableCheckpointFailsRun(t *testing.T) {
	dir := t.TempDir()
	parent := filepath.Join(dir, "file")
	if err := os.WriteFile(parent, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(parent, "run.ckpt")
	_, err := spsSystem(t, 2, 4000, sim.WithCheckpoint(2048, Saver(path, "k"))).Run()
	if err == nil || !strings.Contains(err.Error(), "checkpoint at cycle 2048") || !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("run with an unwritable checkpoint: %v", err)
	}
	if err := Save(path, "k", tinySnap()); !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("Save: %v, want ENOTDIR", err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("a failed Save left files behind: %v %v", ents, err)
	}
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

// TestErrorTexts pins what a run prints when it cannot use a
// checkpoint, for each way Decode refuses one.
func TestErrorTexts(t *testing.T) {
	good := mustEncode(t, tinySnap())
	body := bodyOf(t, good)
	// The body frame's payload is one byte longer than the snapshot.
	padded := appendFrame(append([]byte(nil), good[:len(good)-len(body)-8]...), append(body[:len(body):len(body)], 0))
	// The same snapshot with one message, whose uint8 type reads 256
	// in place of 0x7f: a varint too wide for its field.
	snap := tinySnap()
	snap.Mesh.Events = []interconnect.MeshEventSnap{{Msg: coherence.Msg{Type: 0x7f}}}
	one := bodyOf(t, mustEncode(t, snap))
	at := bytes.IndexByte(one, 0x7f)
	if bytes.Count(one, []byte{0x7f}) != 1 {
		t.Fatalf("the message type is not the body's only byte 0x7f: % x", one)
	}
	wide := appendFrame(append([]byte(nil), good[:len(good)-len(body)-8]...), slices.Concat(one[:at], []byte{0x80, 0x02}, one[at+1:]))
	cases := []struct {
		name string
		data []byte
		key  string
		want string
	}{
		{"another run's", good, "other", `checkpoint c.ckpt: content key mismatch: checkpoint has "k", this run wants "other"`},
		{"an older format", mustRead(t, "testdata/v3.ckpt"), "k", fmt.Sprintf(`checkpoint c.ckpt: version mismatch: checkpoint has "3", this run wants "%d"`, Version)},
		{"truncated in the magic", good[:3], "k", "checkpoint c.ckpt: corrupt: magic: unexpected EOF"},
		{"not a checkpoint", []byte("shredded"), "k", `checkpoint c.ckpt: corrupt: bad magic "shredded"`},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "k", "checkpoint c.ckpt: corrupt: 1 trailing bytes after body frame"},
		{"a byte after the snapshot", padded, "k", fmt.Sprintf("checkpoint c.ckpt: corrupt: body: byte %d: 1 bytes after the snapshot", len(body))},
		{"a number too wide for its field", wide, "k", fmt.Sprintf("checkpoint c.ckpt: corrupt: body: byte %d: 256 overflows coherence.MsgType", at+2)},
	}
	for _, tc := range cases {
		_, _, err := Decode("c.ckpt", tc.key, tc.data)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s:\n got %v\nwant %s", tc.name, err, tc.want)
		}
	}
}
