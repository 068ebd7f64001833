package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rowsim/internal/sim"
)

// These tests are the corruption exhaustiveness proof: a checkpoint
// file damaged at ANY byte offset — a flip or a truncation — must
// yield a typed error (*CorruptError / *MismatchError) or, at the
// Load level with a fallback present, the previous checkpoint. Never
// a panic, never silently wrong state. They run on the minimal
// synthetic snapshot because the sweep is quadratic in file size; the
// framing logic under test is size-independent.

// decodeNeverPanics asserts Decode's contract on one corrupted input.
func decodeNeverPanics(t *testing.T, label string, data []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: Decode panicked: %v", label, r)
		}
	}()
	snap, _, err := Decode("fuzz", "k", data)
	if err == nil {
		// A flip that leaves the file valid is impossible (CRC32 detects
		// all single-byte errors); a truncation to the full length is
		// excluded by the loops below.
		t.Fatalf("%s: corrupted checkpoint decoded successfully", label)
	}
	var ce *CorruptError
	var mm *MismatchError
	if !errors.As(err, &ce) && !errors.As(err, &mm) {
		t.Fatalf("%s: untyped error %T: %v", label, err, err)
	}
	if snap != nil {
		t.Fatalf("%s: error return carried a snapshot", label)
	}
}

func TestDecodeFlipEveryByte(t *testing.T) {
	data, err := Encode("k", tinySnap())
	if err != nil {
		t.Fatal(err)
	}
	for off := range data {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xFF
		decodeNeverPanics(t, "flip@"+itoa(off), mut)
	}
}

func TestDecodeTruncateEveryOffset(t *testing.T) {
	data, err := Encode("k", tinySnap())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		decodeNeverPanics(t, "trunc@"+itoa(n), data[:n])
	}
}

func TestDecodeExtendEveryByteValue(t *testing.T) {
	data, err := Encode("k", tinySnap())
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 256; b++ {
		decodeNeverPanics(t, "extend+"+itoa(b), append(append([]byte(nil), data...), byte(b)))
	}
}

// TestLoadFallsBackOnEveryCorruption is the end-to-end guarantee: with
// a previous checkpoint present, damaging the primary at any offset
// still loads — and loads the previous state, not garbage.
func TestLoadFallsBackOnEveryCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	older, newer := tinySnap(), tinySnap()
	newer.Cycle = 8192
	if err := Save(path, "k", older); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, "k", newer); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, damaged []byte) {
		t.Helper()
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, meta, err := Load(path, "k")
		if err != nil {
			t.Fatalf("%s: fallback load failed: %v", label, err)
		}
		if meta.Cycle != older.Cycle || snap.Cycle != older.Cycle {
			t.Fatalf("%s: fallback returned cycle %d, want %d", label, meta.Cycle, older.Cycle)
		}
	}
	for off := range pristine {
		mut := append([]byte(nil), pristine...)
		mut[off] ^= 0xFF
		check("flip@"+itoa(off), mut)
	}
	for n := 0; n < len(pristine); n += 7 {
		check("trunc@"+itoa(n), pristine[:n])
	}
	// Both slots damaged: typed error, no panic, no snapshot.
	if err := os.WriteFile(path, pristine[:len(pristine)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+PrevSuffix, []byte{0}, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, _, err := Load(path, "k")
	var ce *CorruptError
	if !errors.As(err, &ce) || snap != nil {
		t.Fatalf("both-corrupt load: snap=%v err=%v", snap, err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// bodyOf returns the body frame's payload of an encoded checkpoint.
func bodyOf(t testing.TB, data []byte) []byte {
	t.Helper()
	_, rest, err := nextFrame(data[len(magic):])
	if err != nil {
		t.Fatal(err)
	}
	body, _, err := nextFrame(rest)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// fuzzAllocPerByte and fuzzAllocFixed bound what Decode allocates for
// a body of n bytes: fuzzAllocPerByte*n + fuzzAllocFixed. The decoder
// charges the snapshot's slices, pointees and histogram buckets to a
// budget of allocPerByte bytes per body byte, and the allocator rounds
// each request r up to at most 1.25r + 16 bytes (its size classes waste
// under 19% above 16 bytes, and a large object wastes less than its
// 8 KiB page above 32 KiB). Every allocation follows its own length or
// presence byte, so there are at most n of them: 1.25*32 + 16 = 56
// bytes per body byte. What Decode allocates whatever the body — the
// header's JSON, the snapshot's root, the codec and one error — is
// under fuzzAllocFixed.
const (
	fuzzAllocPerByte = allocPerByte*5/4 + 16
	fuzzAllocFixed   = 16 << 10
)

// FuzzDecodeBody reaches what the tests above almost never do: they
// damage a file and the CRC turns it away before the body decoder sees
// a byte. Here the fuzz input is the body, framed with a correct CRC
// behind a valid header, so it is the body codec and the stats
// accumulators' unmarshalers that must hold Decode's contract: a
// snapshot or a *CorruptError, no panic, and no allocation out of
// proportion to the body (a length field inside it must not be
// believed). A snapshot that decodes is then restored into a fresh
// system of the real seed's shape, which must take it or return an
// error, not panic. The real seed is relabelled with the header's
// cycle, so that it and its mutants get past Decode's cycle check to
// the restore; so are three spoiled copies: one holding an L1 line past
// the end of its array, one listing a directory line twice and one
// naming core 1000 as a line's owner.
func FuzzDecodeBody(f *testing.F) {
	tiny := mustEncode(f, tinySnap())
	tinyBody := bodyOf(f, tiny)
	real := realSnap(f)
	real.Cycle = tinySnap().Cycle
	for _, body := range [][]byte{tinyBody, bodyOf(f, mustEncode(f, real))} {
		f.Add(body)
		for _, cut := range []int{len(body) / 4, len(body) / 2, len(body) - 1} {
			f.Add(body[:cut])
		}
	}
	for _, spoil := range []func(*sim.SysSnap){
		func(s *sim.SysSnap) { s.Caches[0].L1.Pos[0] = 1 << 30 },
		func(s *sim.SysSnap) { s.Dirs[0].Line[1] = s.Dirs[0].Line[0] },
		func(s *sim.SysSnap) { s.Dirs[0].Owner[0] = 1000 },
	} {
		spoiled := realSnap(f)
		spoiled.Cycle = tinySnap().Cycle
		spoil(spoiled)
		f.Add(bodyOf(f, mustEncode(f, spoiled)))
	}
	hdr := tiny[:len(tiny)-len(tinyBody)-8] // magic and header frame, cycle 4096
	f.Fuzz(func(t *testing.T, body []byte) {
		data := appendFrame(append([]byte(nil), hdr...), body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, _, err := Decode("fuzz", "k", data)
		runtime.ReadMemStats(&after)
		var ce *CorruptError
		if (err == nil) == (snap == nil) || err != nil && !errors.As(err, &ce) {
			t.Fatalf("Decode returned snapshot %v, error %T: %v", snap != nil, err, err)
		}
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(fuzzAllocPerByte*len(body)+fuzzAllocFixed); grew > bound {
			t.Fatalf("Decode allocated %d bytes for a %d-byte body, want at most %d", grew, len(body), bound)
		}
		if snap != nil {
			_ = realSystem(t).RestoreSnap(snap) // an error is an answer; a panic fails the fuzz
		}
	})
}
