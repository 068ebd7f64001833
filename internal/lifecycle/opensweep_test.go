package lifecycle

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rowsim/internal/sim"
)

// sweepFlags is a tool's flag set in miniature: three definition flags
// (n, seed, sched) and one that only says how to run (timeout).
func sweepFlags(args ...string) (*flag.FlagSet, error) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int("n", 100, "")
	fs.Uint64("seed", 1, "")
	fs.String("sched", "event", "")
	fs.Duration("timeout", 0, "")
	return fs, fs.Parse(args)
}

// TestOpenSweep: the one create-or-resume path every journaled tool
// takes. A resumed sweep is defined by its journal; the command line
// may repeat the definition, not contradict it.
func TestOpenSweep(t *testing.T) {
	def := []string{"n", "seed", "sched"}
	// The journals are this model's: another model's would start fresh.
	model := fmt.Sprintf(`"model":%d,`, sim.ModelVersion)
	meta := `{"kind":"meta","tool":"tool",` + model + `"args":{"n":"500","seed":"7","sched":"cycle"}`
	hashed := meta + `,"spec_hash":"` + SpecHash("tool", map[string]string{"n": "500", "seed": "7", "sched": "cycle"}) + `"}` + "\n"
	cases := []struct {
		name    string
		journal string   // file content to resume; "" = create instead
		args    []string // the resuming (or creating) command line
		field   string   // SpecMismatchError.Field expected, "" = success
		want    string   // n/seed/sched/timeout after OpenSweep
	}{
		{name: "create records the definition flags", args: []string{"-n", "500", "-timeout", "1m"},
			want: "500/1/event/1m0s"},
		{name: "bare resume restores the definition", journal: hashed,
			want: "500/7/cycle/0s"},
		{name: "agreeing flag", journal: hashed, args: []string{"-n", "500", "-sched", "cycle"},
			want: "500/7/cycle/0s"},
		{name: "conflicting flag", journal: hashed, args: []string{"-n", "100"}, field: "-n"},
		{name: "conflicting scheduler", journal: hashed, args: []string{"-sched", "event"}, field: "-sched"},
		{name: "non-definition flag comes from the line", journal: hashed, args: []string{"-timeout", "90s"},
			want: "500/7/cycle/1m30s"},
		{name: "journal with no sched key keeps the flag", journal: `{"kind":"meta","tool":"tool",` + model + `"args":{"n":"500","seed":"7"}}` + "\n",
			args: []string{"-sched", "cycle"}, want: "500/7/cycle/0s"},
		{name: "journal with no spec hash passes", journal: meta + "}\n",
			want: "500/7/cycle/0s"},
		{name: "another tool's journal", journal: strings.Replace(meta, `"tool":"tool"`, `"tool":"other"`, 1) + "}\n", field: "tool"},
		{name: "edited meta", journal: strings.Replace(hashed, `"n":"500"`, `"n":"600"`, 1), field: "meta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			fs, err := sweepFlags(tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			create, resume := path, ""
			if tc.journal != "" {
				create, resume = "", path
				if err := os.WriteFile(path, []byte(tc.journal), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			j, snap, err := OpenSweep(fs, "tool", create, resume, def...)
			var sm *SpecMismatchError
			if tc.field != "" {
				if !errors.As(err, &sm) || sm.Field != tc.field {
					t.Fatalf("err = %v, want a *SpecMismatchError on %s", err, tc.field)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if (snap != nil) != (resume != "") {
				t.Errorf("snapshot %v, resuming %v", snap != nil, resume != "")
			}
			get := func(name string) string { return fs.Lookup(name).Value.String() }
			if got := get("n") + "/" + get("seed") + "/" + get("sched") + "/" + get("timeout"); got != tc.want {
				t.Errorf("flags after OpenSweep = %s, want %s", got, tc.want)
			}
			if resume == "" {
				// What was created resumes under a bare command line.
				fs2, _ := sweepFlags()
				j2, _, err := OpenSweep(fs2, "tool", "", path, def...)
				if err != nil {
					t.Fatal(err)
				}
				j2.Close()
				if got := fs2.Lookup("n").Value.String(); got != "500" {
					t.Errorf("re-resumed -n = %s, want 500", got)
				}
				if d := fs2.Lookup("timeout").Value.(flag.Getter).Get().(time.Duration); d != 0 {
					t.Errorf("-timeout %v leaked into the journal", d)
				}
			}
		})
	}

	// Neither path: no journal, no snapshot, and both are usable as such.
	fs, _ := sweepFlags()
	j, snap, err := OpenSweep(fs, "tool", "", "", def...)
	if j != nil || snap != nil || err != nil || j.Close() != nil {
		t.Errorf("OpenSweep with no journal = %v, %v, %v", j, snap, err)
	}
	if _, ok := snap.Completed("x"); ok {
		t.Error("nil snapshot completed a job")
	}
}
