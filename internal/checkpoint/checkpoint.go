// Package checkpoint persists mid-run simulation state durably, so a
// long run killed at any instant resumes from the last completed
// checkpoint instead of cycle zero (bounded-loss recovery).
//
// On-disk format (all integers little-endian):
//
//	magic "rowckpt1" (8 bytes)
//	header frame: uint32 length | JSON Meta | uint32 CRC32-C
//	body frame:   uint32 length | body | uint32 CRC32-C
//
// Version 8 of the body is one sim.SysSnap in a hand-listed binary
// codec (body.go): each snapshot type has one function naming its
// fields once, which sizes, encodes and decodes them — numbers as
// varints, slices length first, []uint8 raw, pointers behind a
// presence byte, the stats accumulators through their AppendBinary and
// UnmarshalBinary methods. A snapshot encodes state that exists, not
// capacity — each sram array is its valid lines in ascending position,
// each directory bank its entries in ascending line order — and holds
// no map, so the bytes are a function of the state. Versions 3 to 6
// were encoding/gob streams of the same snapshot, which gob walks by
// reflection: it took about three times as long to encode and half as
// long again to decode, and its encoder's buffers were nearly half of
// what a checkpointed run allocated. Version 7 differs from 8 only in
// the far atomics it also held: two lists of far RMWs per private
// cache, three fields of each open directory transaction, a counter
// per bank, a flag per store-buffer slot and a slot of the lock
// transitions. Version 6 differs from 7 in nothing but the codec;
// version 5 counted the core's issues, forwards and
// forced releases in five fields that version 6 keeps in one array of
// lock transitions, version 4 kept the lazy and lock-order waiters in
// lists of their own, version 3 held the snapshot one struct per line,
// and versions 1 and 2 were JSON bodies. No reader for them remains.
//
// The header carries the format version, the simulated cycle, and a
// content key — a hash over everything that determines the run
// (configuration, workload parameters, seed, code revision; see
// experiments.ContentKey). Load refuses a checkpoint of another format
// version, and one whose key does not match the resuming run, with a
// *MismatchError before it touches the body: resuming foreign state
// would not crash, it would silently produce wrong results, which is
// worse. Checkpoints are recovery state, removed when their job is
// done, so an older build's file is not migrated: ResumeLenient (hence
// Run) starts such a run fresh and says so, and the next Save rotates
// the old file away. Another run's key stays a hard error.
//
// Durability discipline: Save rotates the current checkpoint to the
// ".prev" slot, then writes the new one with lifecycle.WriteAtomic (a
// temporary file, fsynced and renamed into place, then a directory
// fsync). A crash or a failed write at any point leaves either the old
// checkpoint, the new one, or the old one in the ".prev" slot — Load
// tries the primary first and falls back to ".prev", so a torn or
// half-rotated write costs one checkpoint interval of progress, never
// the run. Load never panics on corrupt input: every structural defect
// is reported as a *CorruptError.
package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"rowsim/internal/lifecycle"
	"rowsim/internal/sim"
)

// Version is the on-disk format version. Bump on any incompatible
// change to the header or body encoding; Load refuses other versions.
const Version = 8

// PrevSuffix is appended to a checkpoint path to name the previous
// (fallback) checkpoint in the keep-last-2 rotation.
const PrevSuffix = ".prev"

// maxFrame bounds a frame length read from disk, so a corrupt length
// field cannot drive a multi-gigabyte allocation.
const maxFrame = 1 << 30

var magic = [8]byte{'r', 'o', 'w', 'c', 'k', 'p', 't', '1'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta is the checkpoint header: everything Load verifies before it
// touches the body.
type Meta struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	Cycle   uint64 `json:"cycle"`
}

// MismatchError reports a structurally valid checkpoint that belongs
// to a different run: wrong content key (different config, workload,
// seed or code revision) or wrong format version.
type MismatchError struct {
	Path  string
	Field string // "content key" or "version"
	Want  string
	Got   string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint %s: %s mismatch: checkpoint has %q, this run wants %q", e.Path, e.Field, e.Got, e.Want)
}

// CorruptError reports a checkpoint file that failed structural
// validation: truncated, bit-flipped (CRC), or undecodable.
type CorruptError struct {
	Path  string
	Cause error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint %s: corrupt: %v", e.Path, e.Cause)
}

func (e *CorruptError) Unwrap() error { return e.Cause }

// openFrame starts a frame in buf: a length word to be back-patched by
// sealFrame, which is handed the offset openFrame returns.
func openFrame(buf []byte) ([]byte, int) {
	buf = append(buf, 0, 0, 0, 0)
	return buf, len(buf)
}

// sealFrame closes the frame whose payload starts at start: length in
// front, CRC32-C behind.
func sealFrame(buf []byte, start int) []byte {
	payload := buf[start:]
	binary.LittleEndian.PutUint32(buf[start-4:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
}

// nextFrame slices the first frame's payload out of data — no copy —
// and returns what follows the frame.
func nextFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("frame length: %w", io.ErrUnexpectedEOF)
	}
	ln := binary.LittleEndian.Uint32(data)
	if ln > maxFrame {
		return nil, nil, fmt.Errorf("frame length %d exceeds limit", ln)
	}
	data = data[4:]
	if uint64(len(data)) < uint64(ln) {
		return nil, nil, fmt.Errorf("frame payload: %w", io.ErrUnexpectedEOF)
	}
	payload, data = data[:ln], data[ln:]
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("frame checksum: %w", io.ErrUnexpectedEOF)
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(data); got != want {
		return nil, nil, fmt.Errorf("frame checksum 0x%08x, computed 0x%08x", want, got)
	}
	return payload, data[4:], nil
}

// Encode serializes a checkpoint to its byte representation (the exact
// content Save writes). Split out so tests and in-memory consumers can
// frame without touching the filesystem. The bytes are a function of
// key and snap. The body is sized before it is written, so the buffer
// grows once for it, not append by append.
func Encode(key string, snap *sim.SysSnap) ([]byte, error) {
	return appendEncode(nil, key, snap)
}

// appendEncode is Encode appending to buf: a caller that hands back the
// buffer a previous call returned, as Saver does, grows it only when
// this checkpoint is the larger.
func appendEncode(buf []byte, key string, snap *sim.SysSnap) ([]byte, error) {
	hdr, err := json.Marshal(Meta{Version: Version, Key: key, Cycle: snap.Cycle})
	if err != nil {
		return nil, err
	}
	buf, at := openFrame(append(buf, magic[:]...))
	buf, at = openFrame(sealFrame(append(buf, hdr...), at))
	// The CRC's four bytes are reserved along with the body, so sealing
	// never regrows the buffer.
	buf = appendBody(buf, snap, 4)
	if n := len(buf) - at; n > maxFrame {
		return nil, fmt.Errorf("body of %d bytes exceeds the frame limit Load accepts", n)
	}
	return sealFrame(buf, at), nil
}

// Decode parses checkpoint bytes, verifying structure and, when key is
// non-empty, the content key. Structural defects return *CorruptError;
// a valid checkpoint for a different run returns *MismatchError. The
// path parameter only labels errors.
func Decode(path, key string, data []byte) (*sim.SysSnap, Meta, error) {
	if len(data) < len(magic) {
		return nil, Meta{}, &CorruptError{Path: path, Cause: fmt.Errorf("magic: %w", io.ErrUnexpectedEOF)}
	}
	if !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, Meta{}, &CorruptError{Path: path, Cause: fmt.Errorf("bad magic %q", data[:len(magic)])}
	}
	hdrB, data, err := nextFrame(data[len(magic):])
	if err != nil {
		return nil, Meta{}, &CorruptError{Path: path, Cause: fmt.Errorf("header: %w", err)}
	}
	var meta Meta
	if err := json.Unmarshal(hdrB, &meta); err != nil {
		return nil, Meta{}, &CorruptError{Path: path, Cause: fmt.Errorf("header: %w", err)}
	}
	if meta.Version != Version {
		return nil, meta, &MismatchError{Path: path, Field: "version", Want: fmt.Sprint(Version), Got: fmt.Sprint(meta.Version)}
	}
	if key != "" && meta.Key != key {
		return nil, meta, &MismatchError{Path: path, Field: "content key", Want: key, Got: meta.Key}
	}
	bodyB, data, err := nextFrame(data)
	if err != nil {
		return nil, meta, &CorruptError{Path: path, Cause: fmt.Errorf("body: %w", err)}
	}
	if len(data) != 0 {
		return nil, meta, &CorruptError{Path: path, Cause: fmt.Errorf("%d trailing bytes after body frame", len(data))}
	}
	snap, err := decodeBody(bodyB)
	if err != nil {
		return nil, meta, &CorruptError{Path: path, Cause: fmt.Errorf("body: %w", err)}
	}
	if snap.Cycle != meta.Cycle {
		return nil, meta, &CorruptError{Path: path, Cause: fmt.Errorf("header cycle %d, body cycle %d", meta.Cycle, snap.Cycle)}
	}
	return snap, meta, nil
}

// Save durably writes snap as the checkpoint at path, rotating any
// existing checkpoint to path+PrevSuffix first: a crash or a failed
// write never damages the existing checkpoint lineage.
func Save(path, key string, snap *sim.SysSnap) error {
	_, err := save(nil, path, key, snap)
	return err
}

// save is Save encoding into buf, which it returns for the next save.
func save(buf []byte, path, key string, snap *sim.SysSnap) ([]byte, error) {
	data, err := appendEncode(buf[:0], key, snap)
	if err != nil {
		return buf, fmt.Errorf("checkpoint %s: encode: %w", path, err)
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+PrevSuffix); err != nil {
			return data, err
		}
	}
	return data, lifecycle.WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// loadFile reads and decodes one checkpoint file.
func loadFile(path, key string) (*sim.SysSnap, Meta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Meta{}, err
	}
	return Decode(path, key, data)
}

// Load returns the newest valid checkpoint for path. The primary file
// is tried first; if it is missing or corrupt (torn write, bit rot),
// the ".prev" fallback is tried. A checkpoint for a different run
// returns *MismatchError immediately — the fallback shares the
// lineage, so it cannot be the right run either. When neither slot
// holds a loadable checkpoint, the error wraps os.ErrNotExist if no
// file existed, otherwise it reports the primary's corruption.
func Load(path, key string) (*sim.SysSnap, Meta, error) {
	snap, meta, err := loadFile(path, key)
	if err == nil {
		return snap, meta, nil
	}
	var mismatch *MismatchError
	if errors.As(err, &mismatch) {
		return nil, meta, err
	}
	snap2, meta2, err2 := loadFile(path+PrevSuffix, key)
	if err2 == nil {
		return snap2, meta2, nil
	}
	if errors.As(err2, &mismatch) {
		return nil, meta2, err2
	}
	if os.IsNotExist(err) && os.IsNotExist(err2) {
		return nil, Meta{}, fmt.Errorf("checkpoint %s: %w", path, os.ErrNotExist)
	}
	if os.IsNotExist(err) {
		err = err2 // primary absent: the fallback's defect is the story
	}
	return nil, Meta{}, err
}

// Saver adapts Save to the sim.WithCheckpoint callback signature. Its
// saves share one buffer, so a run's first save allocates the
// checkpoint's bytes and the later ones reuse them.
func Saver(path, key string) func(cycle uint64, snap *sim.SysSnap) error {
	var buf []byte
	return func(_ uint64, snap *sim.SysSnap) (err error) {
		buf, err = save(buf, path, key, snap)
		return err
	}
}

// Resume restores the newest valid checkpoint for path into s.
// ok reports whether a checkpoint was restored; (0, false, nil) means
// no checkpoint exists and the run should start fresh. Any other
// failure — corruption of both slots, key mismatch, shape mismatch —
// is returned as-is for the caller to surface.
func Resume(s *sim.System, path, key string) (cycle uint64, ok bool, err error) {
	snap, meta, err := Load(path, key)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, false, nil
		}
		return 0, false, err
	}
	if err := s.RestoreSnap(snap); err != nil {
		return 0, false, err
	}
	return meta.Cycle, true, nil
}

// ResumeLenient restores the newest valid checkpoint into s with the
// recovery policy the harnesses want: a lineage that cannot be read —
// both slots damaged, or written in another format version by an older
// build of this run — is treated as absent: resuming from cycle zero
// loses bounded progress, while refusing to run loses the whole job
// until someone deletes the file by hand. It is reported through warn
// so the caller can log it, and the next Save rotates it away. A
// content-key *MismatchError or an error restoring the snapshot (a
// shape that does not fit, or state a component refuses) stays a hard
// error: that state belongs to a different run or left s half
// restored, and executing it would be silently wrong.
func ResumeLenient(s *sim.System, path, key string) (cycle uint64, ok bool, warn, err error) {
	cycle, ok, err = Resume(s, path, key)
	var ce *CorruptError
	var me *MismatchError
	if errors.As(err, &ce) || errors.As(err, &me) && me.Field == "version" {
		return 0, false, err, nil
	}
	return cycle, ok, nil, err
}

// OpenDir resolves and creates the directory that holds a sweep's
// checkpoints, one file per job (see Path): dir when it is named
// explicitly, otherwise journal+".ckpt" when checkpoints are being
// written (every > 0) — so interrupt-then-resume finds them with no
// extra flag — and "" (checkpointing off) when neither.
func OpenDir(dir, journal string, every uint64) (string, error) {
	if dir == "" && every > 0 {
		dir = journal + ".ckpt"
	}
	if dir == "" {
		return "", nil
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// Path names the checkpoint file of the job with content key key under
// dir, or "" when dir is "" (checkpointing off). Content addressing
// makes the mapping stable across processes: whoever resumes the job
// recomputes the same key and finds the same file, no manifest needed.
func Path(dir, key string) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, key[:16]+".ckpt")
}

// Run is the one durable attempt every front end makes: build the
// system — saving a checkpoint to Path(dir, key) every `every` cycles
// when every > 0 — resume it from the newest valid checkpoint a killed
// process or a failed earlier attempt left there, and run it under ctx.
// build passes the options Run hands it to sim.New beside its own.
// Recovery is ResumeLenient's: no checkpoint, two corrupt slots or an
// older build's format start fresh, another run's checkpoint (content
// key *MismatchError) fails the attempt; found, when not nil, hears the
// cycle resumed at or the error that cost the lineage. With dir "" Run
// is build and RunCtx. The lineage outlives the attempt: the caller
// Removes it once the job's outcome is terminal and keeps it for a
// canceled one.
func Run(ctx context.Context, dir string, every uint64, key string,
	build func(...sim.Option) (*sim.System, error), found func(cycle uint64, warn error)) (sim.Result, error) {
	path := Path(dir, key)
	var opts []sim.Option
	if path != "" && every > 0 {
		opts = append(opts, sim.WithCheckpoint(every, Saver(path, key)))
	}
	s, err := build(opts...)
	if err != nil {
		return sim.Result{}, err
	}
	if path != "" {
		cycle, ok, warn, err := ResumeLenient(s, path, key)
		if err != nil {
			return sim.Result{}, err
		}
		if found != nil && (ok || warn != nil) {
			found(cycle, warn)
		}
	}
	return s.RunCtx(ctx)
}

// Remove deletes every file of the checkpoint lineage at path (the
// primary, the ".prev" fallback, and any abandoned temporary) — what a
// job whose outcome is terminal does with its recovery state. Missing
// files and the "" path of a job that never checkpointed are fine; the
// first real filesystem error is returned.
func Remove(path string) error {
	if path == "" {
		return nil
	}
	var first error
	for _, p := range []string{path, path + PrevSuffix, path + ".tmp"} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	return first
}
