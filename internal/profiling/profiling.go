// Package profiling wires the standard runtime/pprof and runtime/trace
// collectors behind the -cpuprofile/-memprofile/-trace flags of rowsim
// (one cell), rowbench (figures), rowsweep (a sweep) and rowserve (the
// daemon), so perf work can profile real runs without patching the
// tools or writing a harness.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Start enables the requested collectors (empty path = off) and
// returns a stop function that must run before process exit: it ends
// the CPU profile and trace, and writes the heap profile (after a GC,
// so it reflects live objects rather than garbage).
func Start(cpuPath, memPath, tracePath string) (stop func() error, err error) {
	var cpuF, traceF *os.File
	cleanup := func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if traceF != nil {
			trace.Stop()
			traceF.Close()
		}
	}
	if cpuPath != "" {
		cpuF, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			cpuF = nil
			cleanup()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	if tracePath != "" {
		traceF, err = os.Create(tracePath)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := trace.Start(traceF); err != nil {
			traceF.Close()
			traceF = nil
			cleanup()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	return func() error {
		cleanup()
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
		return nil
	}, nil
}
