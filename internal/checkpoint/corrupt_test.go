package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
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

// FuzzDecodeBody reaches what the tests above almost never do: they
// damage a file and the CRC turns it away before the body decoder sees
// a byte. Here the fuzz input is the body, framed with a correct CRC
// behind a valid header, so it is gob and the snapshot types'
// unmarshalers that must hold Decode's contract: a snapshot or a
// *CorruptError, no panic, and no allocation out of proportion to a
// frame (a length field inside the body must not be believed). A
// snapshot that decodes is then restored into a fresh system of the
// real seed's shape, which must take it or return an error, not panic.
// The real seed is relabelled with the header's cycle, so that it and
// its mutants get past Decode's cycle check to the restore; so is a
// copy holding an L1 line past the end of its array.
func FuzzDecodeBody(f *testing.F) {
	tiny := mustEncode(f, tinySnap())
	tinyBody := bodyOf(f, tiny)
	real, spoiled := realSnap(f), realSnap(f)
	real.Cycle, spoiled.Cycle = tinySnap().Cycle, tinySnap().Cycle
	spoiled.Caches[0].L1.Pos[0] = 1 << 30
	for _, body := range [][]byte{tinyBody, bodyOf(f, mustEncode(f, real))} {
		f.Add(body)
		for _, cut := range []int{len(body) / 4, len(body) / 2, len(body) - 1} {
			f.Add(body[:cut])
		}
	}
	f.Add(bodyOf(f, mustEncode(f, spoiled)))
	hdr := tiny[:len(tiny)-len(tinyBody)-8] // magic and header frame, cycle 4096
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, _, err := Decode("fuzz", "k", appendFrame(append([]byte(nil), hdr...), body))
		runtime.ReadMemStats(&after)
		var ce *CorruptError
		if (err == nil) == (snap == nil) || err != nil && !errors.As(err, &ce) {
			t.Fatalf("Decode returned snapshot %v, error %T: %v", snap != nil, err, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFrame {
			t.Fatalf("Decode allocated %d bytes for a %d-byte body", grew, len(body))
		}
		if snap != nil {
			_ = realSystem(t).RestoreSnap(snap) // an error is an answer; a panic fails the fuzz
		}
	})
}
