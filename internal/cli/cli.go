// Package cli is the shell the commands share: flag parsing, the
// profiling flags, the signal context and the journaled-sweep flags.
// Exit codes are 0, 1 (a run failed, or a profile or journal could not
// be written), 2 (usage) and 130 (interrupted); the first non-zero code
// wins, so a late error turns only a success into 1.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sync"
	"syscall"
)

// NewFlagSet returns a command's flag set, which prints parse errors
// and usage to stderr and leaves the exit to Parse's caller.
func NewFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Parse parses args into fs. ok is false when the command is done
// before it starts: code is 0 after -h and 2 after a usage error.
func Parse(fs *flag.FlagSet, args []string) (code int, ok bool) {
	switch err := fs.Parse(args); {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	}
	return 2, false
}

// late prints err and folds it into *code by the first-wins rule.
func late(code *int, stderr io.Writer, err error) {
	fmt.Fprintln(stderr, err)
	if *code == 0 {
		*code = 1
	}
}

// Synced returns w with its writes serialized, for commands whose
// progress callbacks run on worker goroutines.
func Synced(w io.Writer) io.Writer { return &synced{w: w} }

type synced struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *synced) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// Context returns a context canceled by SIGINT (Ctrl-C) or SIGTERM
// (what containers and orchestrators send): both drain gracefully.
func Context() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Profile is the -cpuprofile/-memprofile/-trace triple.
type Profile struct {
	cpu, mem, trace string
	stops           []func()
}

// AddProfile registers the profiling flags on fs.
func AddProfile(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&p.trace, "trace", "", "write a runtime execution trace to this file")
	return p
}

// Start starts the requested collectors. On failure it prints why,
// leaves none running and returns false: a usage error.
func (p *Profile) Start(stderr io.Writer) bool {
	for _, c := range []struct {
		path  string
		start func(io.Writer) error
		stop  func()
	}{{p.cpu, pprof.StartCPUProfile, pprof.StopCPUProfile}, {p.trace, trace.Start, trace.Stop}} {
		if c.path == "" {
			continue
		}
		f, err := os.Create(c.path)
		if err == nil {
			if err = c.start(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			p.stop()
			fmt.Fprintf(stderr, "profiling: %v\n", err)
			return false
		}
		p.stops = append(p.stops, func() { c.stop(); f.Close() })
	}
	return true
}

func (p *Profile) stop() {
	for _, stop := range p.stops {
		stop()
	}
}

// Stop stops the collectors and writes the heap profile (after a GC,
// so it shows live objects); a late error if it cannot.
func (p *Profile) Stop(code *int, stderr io.Writer) {
	p.stop()
	if p.mem == "" {
		return
	}
	f, err := os.Create(p.mem)
	if err == nil {
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		late(code, stderr, fmt.Errorf("profiling: %w", err))
	}
}
