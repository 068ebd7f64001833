// Package chaostest kills the real rowserve binary with SIGKILL at
// randomized points — including mid-journal-append — restarts it, and
// asserts the crash-safety contract end to end:
//
//   - no accepted cell is lost (every admitted cell reaches a terminal
//     state once the daemon is finally allowed to finish),
//   - no completed cell is duplicated (at most one terminal ok record
//     per cell key across every restart),
//   - the final results document is byte-identical to an uninterrupted
//     run of the same spec.
//
// The harness is a subprocess test on purpose: in-process restarts
// (internal/serve tests) cannot prove survival of a real SIGKILL,
// which never runs deferred code, never flushes buffers, and can land
// between any two syscalls.
package chaostest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// chaosSpec expands to 9 cells (3 values x eager/lazy/row), small
// enough that a full run takes well under a second but long enough
// that early kills usually land mid-sweep.
const chaosSpec = `{"workload":"sps","param":"sharedfrac","values":[0.1,0.5,0.9],"cores":2,"instrs":800}`

const chaosCells = 9

var (
	binDir    string // removed by TestMain once the tests are done
	buildOnce sync.Once
	buildErr  error
	binPath   string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "rowserve-chaos-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// rowserveBin builds cmd/rowserve once per test binary.
func rowserveBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(binDir, "rowserve")
		cmd := exec.Command("go", "build", "-o", binPath, "rowsim/cmd/rowserve")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("build rowserve: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// daemon is one running rowserve subprocess.
type daemon struct {
	cmd *exec.Cmd
	url string
	log *bytes.Buffer
}

// startDaemon launches rowserve on a free port and waits for /readyz.
// Extra flags (e.g. -checkpoint-every) are appended to the base set.
// The daemon is killed when the test ends, if nothing killed it before.
func startDaemon(t *testing.T, journal string, extra ...string) *daemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), fmt.Sprintf("addr-%d", time.Now().UnixNano()))
	d := &daemon{log: &bytes.Buffer{}}
	args := append([]string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-journal", journal, "-workers", "2"}, extra...)
	d.cmd = exec.Command(rowserveBin(t), args...)
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.kill)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			d.url = "http://" + string(addr)
			resp, err := http.Get(d.url + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("rowserve never became ready; log:\n%s", d.log)
	return nil
}

// kill delivers SIGKILL: no deferred code, no flushes, no goodbye. A
// daemon already killed is left alone.
func (d *daemon) kill() {
	if d.cmd.ProcessState != nil {
		return
	}
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

func (d *daemon) submit(t *testing.T, spec string) (code int, id string) {
	t.Helper()
	resp, err := http.Post(d.url+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v; log:\n%s", err, d.log)
	}
	defer resp.Body.Close()
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, v.ID
}

// waitDone polls the sweep until done and returns the results bytes.
func (d *daemon) waitDone(t *testing.T, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.url + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatalf("poll: %v; log:\n%s", err, d.log)
		}
		var v struct {
			Status string `json:"status"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == "done" {
			resp, err := http.Get(d.url + "/v1/sweeps/" + id + "/results")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("results: %d %s", resp.StatusCode, buf.Bytes())
			}
			return buf.Bytes()
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("sweep %s never finished; log:\n%s", id, d.log)
	return nil
}

// TestChaosKill9 is the chaos gate. One clean run establishes the
// reference bytes; the chaos run is SIGKILLed at randomized points
// across several restarts (with a torn journal append injected between
// two of them) and must converge to the identical document.
func TestChaosKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness; skipped in -short")
	}
	rowserveBin(t) // fail fast if the build fails

	// Reference: uninterrupted run.
	cleanJournal := filepath.Join(t.TempDir(), "clean.jsonl")
	clean := startDaemon(t, cleanJournal)
	code, id := clean.submit(t, chaosSpec)
	if code != http.StatusAccepted {
		t.Fatalf("clean submit = %d, want 202", code)
	}
	want := clean.waitDone(t, id)
	clean.kill()

	// Chaos: same spec, kill -9 at seeded-random points. The seed is
	// overridable so a failing schedule can be replayed exactly.
	seed := int64(1)
	if s := os.Getenv("ROWSIM_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad ROWSIM_CHAOS_SEED %q", s)
		}
		seed = v
	}
	t.Logf("chaos schedule seed %d (replay with ROWSIM_CHAOS_SEED)", seed)
	rng := rand.New(rand.NewSource(seed))

	journal := filepath.Join(t.TempDir(), "chaos.jsonl")
	const rounds = 4
	for round := 0; round < rounds; round++ {
		d := startDaemon(t, journal)
		if round == 0 {
			code, chaosID := d.submit(t, chaosSpec)
			if code != http.StatusAccepted {
				t.Fatalf("chaos submit = %d, want 202", code)
			}
			if chaosID != id {
				t.Fatalf("chaos sweep ID %s != clean %s (spec identity must be deterministic)", chaosID, id)
			}
		}
		// Let it work for a random slice of the sweep, then murder it.
		time.Sleep(time.Duration(1+rng.Intn(120)) * time.Millisecond)
		d.kill()

		if round == 1 {
			// Crash mid-append: a torn, newline-less half record at the
			// tail. Recovery must truncate it, not choke or misparse.
			f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(`{"kind":"cell","sweep":"` + id + `","key":"torn-`); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
	}

	// Final restart: no more kills, the sweep must complete.
	d := startDaemon(t, journal)
	got := d.waitDone(t, id)
	if !bytes.Equal(want, got) {
		t.Errorf("results after %d SIGKILLs diverge from the uninterrupted run:\n--- clean ---\n%s--- chaos ---\n%s",
			rounds, want, got)
	}

	auditJournal(t, journal, id)
}

// ckptSpec is heavier than chaosSpec so cells live long enough to
// cross many checkpoint intervals: kills land while checkpoint files
// are actively being written and rotated. It is sized against the cost
// of a save — the sweep must still be in flight when the first round's
// kill lands (111 ms in with the default seed), or the corruption round
// has no checkpoint to wait for: about 600 ms with binary bodies (3000
// instructions, enough when a save was a JSON encode, finish in 130).
const ckptSpec = `{"workload":"sps","param":"sharedfrac","values":[0.2,0.8],"cores":2,"instrs":9000}`

const ckptCells = 6

// TestChaosCheckpointKill9 is the mid-checkpoint-write chaos gate. The
// daemon runs with a tight checkpoint cadence so saves are in flight
// almost continuously; SIGKILL therefore lands between any two syscalls
// of the save path (temp write, fsync, .prev rotation, rename). One
// round additionally corrupts the newest checkpoint of every cell on
// disk, forcing resume to fall back to the .prev generation or start
// the cell fresh. Whatever mix of torn, stale, and missing checkpoints
// recovery sees, the final results document must be byte-identical to
// an uninterrupted, never-checkpointed run.
func TestChaosCheckpointKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness; skipped in -short")
	}
	rowserveBin(t)

	// Reference: uninterrupted run with checkpointing off. Resuming
	// from checkpoints must not be observable in the results.
	cleanJournal := filepath.Join(t.TempDir(), "clean.jsonl")
	clean := startDaemon(t, cleanJournal)
	code, id := clean.submit(t, ckptSpec)
	if code != http.StatusAccepted {
		t.Fatalf("clean submit = %d, want 202", code)
	}
	want := clean.waitDone(t, id)
	clean.kill()

	seed := int64(1)
	if s := os.Getenv("ROWSIM_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad ROWSIM_CHAOS_SEED %q", s)
		}
		seed = v
	}
	t.Logf("chaos schedule seed %d (replay with ROWSIM_CHAOS_SEED)", seed)
	rng := rand.New(rand.NewSource(seed))

	journal := filepath.Join(t.TempDir(), "chaos.jsonl")
	ckptDir := journal + ".ckpt" // the daemon's default layout
	ckptFlags := []string{"-checkpoint-every", "512"}
	const rounds = 3
	for round := 0; round < rounds; round++ {
		d := startDaemon(t, journal, ckptFlags...)
		if round == 0 {
			code, chaosID := d.submit(t, ckptSpec)
			if code != http.StatusAccepted {
				t.Fatalf("chaos submit = %d, want 202", code)
			}
			if chaosID != id {
				t.Fatalf("chaos sweep ID %s != clean %s", chaosID, id)
			}
		}
		if round == 1 {
			// Corruption round: kill the instant checkpoints exist so
			// a running cell cannot finish and clean them up first,
			// then corrupt every surviving newest-generation file —
			// recovery must fall back to .prev or recompute, silently.
			// The appear-then-settle race is real (a cell can complete
			// between ReadDir and SIGKILL), so retry until a kill
			// actually strands checkpoints on disk.
			shredded := 0
			for attempt := 0; attempt < 10 && shredded == 0; attempt++ {
				if attempt > 0 {
					d = startDaemon(t, journal, ckptFlags...)
				}
				waitForCheckpoint(t, ckptDir, 10*time.Second)
				d.kill()
				ents, err := os.ReadDir(ckptDir)
				if err != nil && !os.IsNotExist(err) {
					t.Fatal(err)
				}
				for _, e := range ents {
					if strings.HasSuffix(e.Name(), ".ckpt") {
						p := filepath.Join(ckptDir, e.Name())
						if err := os.WriteFile(p, []byte("shredded"), 0o644); err != nil {
							t.Fatal(err)
						}
						shredded++
					}
				}
			}
			if shredded == 0 {
				t.Fatal("no checkpoint files survived any kill; the fallback path was not exercised")
			}
			t.Logf("corrupted %d checkpoint file(s) after round %d", shredded, round)
			continue
		}
		// Long enough for cells to start and checkpoint repeatedly,
		// short enough that the sweep is still in flight when killed.
		time.Sleep(time.Duration(30+rng.Intn(250)) * time.Millisecond)
		d.kill()
	}

	// Final restart: no more kills; the sweep completes from whatever
	// checkpoints survived.
	d := startDaemon(t, journal, ckptFlags...)
	got := d.waitDone(t, id)
	if !bytes.Equal(want, got) {
		t.Errorf("results after %d mid-checkpoint SIGKILLs diverge from the uninterrupted run:\n--- clean ---\n%s--- chaos ---\n%s",
			rounds, want, got)
	}

	// Terminal cells delete their checkpoints; once the sweep is done
	// the directory must drain to empty (removal races settle briefly).
	deadline := time.Now().Add(5 * time.Second)
	for {
		ents, err := os.ReadDir(ckptDir)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if len(ents) == 0 {
			break
		}
		if time.Now().After(deadline) {
			names := make([]string, 0, len(ents))
			for _, e := range ents {
				names = append(names, e.Name())
			}
			t.Errorf("checkpoint dir not drained after completion: %v", names)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitForCheckpoint polls until dir contains at least one primary
// checkpoint file (suffix .ckpt — not a .tmp in progress or a rotated
// .prev, which resume alone cannot use).
func waitForCheckpoint(t *testing.T, dir string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ents, err := os.ReadDir(dir)
		if err == nil {
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".ckpt") {
					return
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no primary checkpoint appeared in %s within %v", dir, timeout)
}

// auditJournal re-reads the chaos journal and enforces the queue's
// durability invariants record by record.
func auditJournal(t *testing.T, path, sweepID string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	okCount := make(map[string]int)
	terminal := make(map[string]string)
	sweeps := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	torn := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec struct {
			Kind   string `json:"kind"`
			Sweep  string `json:"sweep"`
			Key    string `json:"key"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			// The injected torn tail is truncated by recovery, but the
			// process may have been killed mid-append on its own too; a
			// non-final unparseable line would be corruption.
			torn++
			continue
		}
		switch rec.Kind {
		case "sweep":
			sweeps++
		case "cell":
			switch rec.Status {
			case "ok":
				okCount[rec.Key]++
				terminal[rec.Key] = "ok"
			case "failed", "degraded":
				terminal[rec.Key] = rec.Status
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if sweeps != 1 {
		t.Errorf("journal has %d sweep records, want 1 (admission is idempotent)", sweeps)
	}
	if torn > 0 {
		t.Logf("journal contains %d unparseable line(s) — tolerated only as a truncated tail", torn)
	}
	// No duplication: a completed cell is never recomputed, so at most
	// one ok record per key survives any number of restarts.
	for key, n := range okCount {
		if n > 1 {
			t.Errorf("cell %s has %d ok records: completed work was recomputed", key, n)
		}
	}
	// No loss: every admitted cell reached a terminal ok state.
	if len(terminal) != chaosCells {
		t.Errorf("journal shows %d terminal cells, want %d", len(terminal), chaosCells)
	}
	for key, st := range terminal {
		if st != "ok" {
			t.Errorf("cell %s ended %s, want ok", key, st)
		}
		if !strings.HasPrefix(key, sweepID+"/") {
			t.Errorf("cell key %s does not belong to sweep %s", key, sweepID)
		}
	}
}
