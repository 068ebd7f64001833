package lifecycle

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"rowsim/internal/sim"
)

// Record is one JSONL journal line. A journal starts with exactly one
// "meta" record describing the sweep (tool name plus the flag values
// needed to reconstruct it), followed by one "run" record per
// completed job. Seeds are journaled resolved — a record never carries
// the ambiguous seed 0 a caller may have passed to mean "default".
//
// rowserve reuses the same journal as its durable queue: a "sweep"
// record admits a batch of cells, and every cell state transition
// (running, then ok/failed/degraded/canceled) is a "cell" record.
// Restart replays the journal and reconstructs the exact queue state —
// the latest record per key wins, so a cell is re-run if and only if
// its newest journaled state is non-terminal.
type Record struct {
	Kind string `json:"kind"` // "meta" | "run" | "sweep" | "cell"

	// Meta fields. SpecHash is the canonical hash of the sweep
	// definition (see SpecHash); Create fills it automatically so a
	// resume can detect a journal whose meta was edited or that was
	// produced by a different definition. Sweep records carry the hash
	// of their embedded Spec the same way. Model is the
	// sim.ModelVersion that computed the journal's results; Create
	// stamps it.
	Tool     string            `json:"tool,omitempty"`
	Args     map[string]string `json:"args,omitempty"`
	SpecHash string            `json:"spec_hash,omitempty"`
	Model    int               `json:"model,omitempty"`

	// Queue fields (rowserve). Sweep is the owning sweep ID on both
	// "sweep" and "cell" records; Spec is the sweep's JSON submission.
	Sweep  string          `json:"sweep,omitempty"`
	Tenant string          `json:"tenant,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`

	// Run/cell fields.
	Key      string      `json:"key,omitempty"` // stable job identity (repro line)
	Seed     uint64      `json:"seed,omitempty"`
	Status   Status      `json:"status,omitempty"`
	Attempts int         `json:"attempts,omitempty"`
	Class    string      `json:"class,omitempty"` // retry class of the final error
	Error    string      `json:"error,omitempty"`
	Result   *sim.Result `json:"result,omitempty"` // set when Status == ok

	// Checkpoint is the job's durable checkpoint path, when mid-run
	// checkpointing was enabled (observability: where recovery state
	// lived, and where to look if it was left behind).
	Checkpoint string `json:"checkpoint,omitempty"`
}

// Outcome converts a journaled run record back into the outcome the
// supervisor produced, so resumed sweeps aggregate journaled results
// exactly as live ones.
func (r Record) Outcome() Outcome {
	out := Outcome{Status: r.Status, Attempts: r.Attempts}
	if r.Result != nil {
		out.Result = *r.Result
	}
	if r.Error != "" {
		out.Err = fmt.Errorf("%s (journaled, class %s)", r.Error, r.Class)
	}
	return out
}

// syncEvery batches fsync: every record is flushed to the OS when
// appended (a SIGKILL of the process loses nothing already appended),
// but the more expensive disk barrier runs once per this many records
// (power-loss can cost at most one batch; the torn tail is dropped on
// resume).
const syncEvery = 16

// journalFile is the sink a journal appends to. Production journals
// write to an *os.File; tests inject failing implementations to prove
// write and sync errors surface instead of being dropped.
type journalFile interface {
	io.Writer
	Sync() error
	Close() error
}

// Journal is a crash-safe append-only JSONL run log. Creation is
// atomic (the header is written to a temp file, fsynced and renamed,
// so the journal either exists with a valid meta record or not at
// all); appends are line-buffered with batched fsync; Resume tolerates
// a torn final line by truncating to the last valid record.
type Journal struct {
	mu      sync.Mutex
	f       journalFile
	w       *bufio.Writer
	path    string
	pending int   // appends since the last fsync
	err     error // first append failure, sticky
}

// Create initializes a new journal at path with the given meta record
// via write-temp-then-rename, then opens it for appending. An existing
// file at path is an error: journals are never silently overwritten.
func Create(path string, meta Record) (*Journal, error) {
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("lifecycle: journal %s already exists (use resume, or remove it)", path)
	}
	meta.Kind, meta.Model = "meta", sim.ModelVersion
	if meta.SpecHash == "" && len(meta.Args) > 0 {
		meta.SpecHash = SpecHash(meta.Tool, meta.Args)
	}
	line, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: encode meta: %w", err)
	}
	err = WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(line, '\n'))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("lifecycle: write journal header: %w", err)
	}
	return openAppend(path)
}

// WriteAtomic makes path hold exactly what write writes, or leaves it
// as it was: the bytes go to path+".tmp", which is fsynced, closed and
// renamed over path, and then the directory is fsynced so the rename
// itself survives power loss (without it a journal acknowledged to a
// client can vanish). The directory fsync is best-effort: some
// filesystems refuse it. A failed write removes the temp file.
// Journals and checkpoints are written through it.
func WriteAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

func openAppend(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f, w: bufio.NewWriter(f), path: path}, nil
}

// Path returns the journal's file path (for resume hints).
func (j *Journal) Path() string { return j.path }

// Append writes one record as a JSONL line and flushes it to the OS;
// fsync runs every syncEvery records. Append never fails the caller's
// run: the first I/O error is recorded and returned by Err.
func (j *Journal) Append(rec Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		j.err = fmt.Errorf("lifecycle: encode record: %w", err)
		return
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		j.err = err
		return
	}
	if err := j.w.Flush(); err != nil {
		j.err = err
		return
	}
	j.pending++
	if j.pending >= syncEvery {
		j.err = j.f.Sync()
		j.pending = 0
	}
}

// Err returns the first append failure, or nil.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes, fsyncs and closes the journal. A nil journal (a sweep
// run without one) closes cleanly.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return j.err
	}
	ferr := j.w.Flush()
	serr := j.f.Sync()
	cerr := j.f.Close()
	j.f = nil
	for _, e := range []error{j.err, ferr, serr, cerr} {
		if e != nil {
			return e
		}
	}
	return nil
}

// SpecHash canonically hashes a sweep definition — the tool name plus
// its reconstruction arguments in sorted-key order — so a journal can
// prove which definition produced it. Resume paths compare the stored
// hash against a recomputation and fail fast with *SpecMismatchError
// on divergence instead of silently sweeping the wrong cells.
func SpecHash(tool string, args map[string]string) string {
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	fmt.Fprintf(h, "tool=%s\n", tool)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, args[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Snapshot is a loaded journal: the meta record, the latest run (or
// cell) record per job key, and — for queue journals — the accepted
// sweep records in admission order.
type Snapshot struct {
	Meta   Record
	Runs   map[string]Record
	Sweeps []Record
}

// CheckSpec recomputes the meta record's definition hash and returns a
// *SpecMismatchError when it no longer matches the stored one (an
// edited or corrupt meta record, or a journal written by a tool whose
// definition encoding changed). Journals from before spec hashing
// (no stored hash) pass: there is nothing to validate against.
func (s *Snapshot) CheckSpec(path string) error {
	if s == nil || s.Meta.SpecHash == "" {
		return nil
	}
	got := SpecHash(s.Meta.Tool, s.Meta.Args)
	if got != s.Meta.SpecHash {
		return &SpecMismatchError{Path: path, Field: "meta", Want: s.Meta.SpecHash, Got: got}
	}
	return nil
}

// Completed reports whether key finished successfully in the journaled
// sweep and returns its record. Failed, degraded and canceled jobs do
// not count: a resumed sweep re-runs them (that is the "re-run only
// failures" half of resume — successes are served from the journal).
func (s *Snapshot) Completed(key string) (Record, bool) {
	if s == nil {
		return Record{}, false
	}
	rec, ok := s.Runs[key]
	if !ok || rec.Status != StatusOK {
		return Record{}, false
	}
	return rec, true
}

// Load reads a journal, dropping a torn final line (a crash mid-append
// leaves at most one), and returns the snapshot plus the byte length
// of the valid prefix.
func Load(path string) (*Snapshot, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	snap := &Snapshot{Runs: make(map[string]Record)}
	r := bufio.NewReader(f)
	var valid int64
	first := true
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// No trailing newline: the record was torn mid-write. Drop it.
			break
		}
		if err != nil {
			return nil, 0, err
		}
		var rec Record
		if json.Unmarshal(line, &rec) != nil {
			break // torn or corrupt tail: keep the valid prefix only
		}
		if first {
			if rec.Kind != "meta" {
				return nil, 0, fmt.Errorf("lifecycle: %s is not a journal (first record kind %q, want meta)", path, rec.Kind)
			}
			snap.Meta = rec
			first = false
		} else if (rec.Kind == "run" || rec.Kind == "cell") && rec.Key != "" {
			// Latest record wins: a cell journaled running and later ok
			// resolves to ok; one journaled ok only before the crash
			// point resolves to whatever state survived.
			snap.Runs[rec.Key] = rec
		} else if rec.Kind == "sweep" {
			snap.Sweeps = append(snap.Sweeps, rec)
		}
		valid += int64(len(line))
	}
	if first {
		return nil, 0, fmt.Errorf("lifecycle: %s has no valid meta record", path)
	}
	return snap, valid, nil
}

// Resume loads the journal at path, truncates any torn tail, and
// reopens it for appending, so a killed sweep continues in place: the
// snapshot says which jobs are already done, new records append after
// the valid prefix.
func Resume(path string) (*Journal, *Snapshot, error) {
	snap, valid, err := Load(path)
	if err != nil {
		return nil, nil, err
	}
	if err := os.Truncate(path, valid); err != nil {
		return nil, nil, fmt.Errorf("lifecycle: drop torn journal tail: %w", err)
	}
	j, err := openAppend(path)
	if err != nil {
		return nil, nil, err
	}
	return j, snap, nil
}

// OpenSweep creates or resumes a tool's sweep journal against its flag
// set; def names the flags that define the sweep (as opposed to how it
// is run: timeouts, worker counts, output format). With create set it
// starts a journal whose meta record holds the definition flags' current
// values; with resume set it reopens one (see Resume), refuses it unless
// it is this tool's, its meta still hashes to its definition (CheckSpec)
// and every definition flag given on the command line agrees with it —
// all as *SpecMismatchError — and then sets each flag the journal recorded to
// the journaled value, so `tool -resume j.jsonl` needs no other flag. A
// definition flag the journal predates (no key) keeps its value. A
// journal another sim.ModelVersion wrote is kept beside resume, renamed
// after its model, and the sweep starts fresh at resume with a warning
// on fs's output and a nil snapshot. With neither path it returns a nil
// journal and snapshot, which Supervisor, Sweep and Close all accept.
func OpenSweep(fs *flag.FlagSet, tool, create, resume string, def ...string) (*Journal, *Snapshot, error) {
	fresh := func(path string) (*Journal, *Snapshot, error) {
		args := make(map[string]string, len(def))
		for _, name := range def {
			args[name] = fs.Lookup(name).Value.String()
		}
		j, err := Create(path, Record{Tool: tool, Args: args})
		return j, nil, err
	}
	if resume == "" {
		if create == "" {
			return nil, nil, nil
		}
		return fresh(create)
	}
	j, snap, err := Resume(resume)
	if err != nil {
		return nil, nil, err
	}
	if err = snap.CheckSpec(resume); err == nil && snap.Meta.Tool != tool {
		err = &SpecMismatchError{Path: resume, Field: "tool", Want: snap.Meta.Tool, Got: tool}
	}
	fs.Visit(func(f *flag.Flag) {
		if want, isDef := snap.Meta.Args[f.Name]; isDef && err == nil && f.Value.String() != want {
			err = &SpecMismatchError{Path: resume, Field: "-" + f.Name, Want: want, Got: f.Value.String()}
		}
	})
	for name, v := range snap.Meta.Args {
		if f := fs.Lookup(name); f != nil && err == nil {
			if serr := f.Value.Set(v); serr != nil {
				err = fmt.Errorf("lifecycle: corrupt journal meta in %s: -%s: %v", resume, name, serr)
			}
		}
	}
	if err != nil {
		j.Close()
		return nil, nil, err
	}
	if snap.Meta.Model == sim.ModelVersion {
		return j, snap, nil
	}
	// Another model computed these results: none may be served.
	j.Close()
	kept := fmt.Sprintf("%s.model%d", resume, snap.Meta.Model)
	if _, err := os.Stat(kept); err == nil {
		return nil, nil, fmt.Errorf("lifecycle: journal %s is from model %d, and %s already exists (remove it to start fresh)", resume, snap.Meta.Model, kept)
	}
	if err := os.Rename(resume, kept); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(fs.Output(), "%s: journal %s is from model %d, this build runs model %d: starting fresh (old journal kept as %s)\n",
		tool, resume, snap.Meta.Model, sim.ModelVersion, kept)
	return fresh(resume)
}
