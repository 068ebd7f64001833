package coherence

import (
	"fmt"
	"strings"
)

// ProtocolError is a structured coherence-protocol (or core-invariant)
// violation. Every site that used to panic on an impossible message or
// queue state now raises one of these instead, so a protocol bug
// surfaces as a diagnosable, machine-readable error — with the cycle,
// the component, the line address and the transaction state — rather
// than a crash of the whole process.
//
// The raising component builds the error and hands it to the sink,
// which owns it from then on.
type ProtocolError struct {
	// Cycle is the simulation cycle at which the violation was
	// detected (the raising component's local clock).
	Cycle uint64
	// Component names the raising agent: "directory bank 2",
	// "cache 5", "core 1" or "mesh".
	Component string
	// Line is the cacheline address involved, 0 when not line-specific.
	Line uint64
	// Op is the offending message or operation, when there is one.
	Op string
	// State describes the transaction/entry state at the violation
	// (directory entry, MSHR, ROB head — whatever the component knows).
	State string
	// Reason is the one-line diagnosis.
	Reason string
	// Trace holds recent network messages touching Line, attached by
	// the system before the error is returned (empty until then).
	Trace []string
}

// Error renders the full report.
func (e *ProtocolError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol error at cycle %d: %s: %s", e.Cycle, e.Component, e.Reason)
	if e.Op != "" {
		fmt.Fprintf(&b, " [op %s]", e.Op)
	}
	if e.Line != 0 {
		fmt.Fprintf(&b, " line=%#x", e.Line)
	}
	if e.State != "" {
		fmt.Fprintf(&b, " state={%s}", e.State)
	}
	if len(e.Trace) > 0 {
		b.WriteString("\nmessage trace (oldest first):\n  ")
		b.WriteString(strings.Join(e.Trace, "\n  "))
	}
	return b.String()
}

// ErrorSink collects the first protocol error raised by any component
// of one simulated system. The system checks it every cycle and turns
// a recorded error into the Run return value; later errors in the same
// (already doomed) cycle are dropped.
type ErrorSink struct {
	err *ProtocolError
}

// Err returns the recorded error, or nil.
func (s *ErrorSink) Err() *ProtocolError { return s.err }

// Raise reports e to the sink, which keeps only the first error.
// Components not wired into a system (nil sink, e.g. driven directly
// by a unit test) keep the historical fail-fast behaviour and panic
// with the structured error as payload.
func Raise(s *ErrorSink, e *ProtocolError) {
	if s == nil {
		panic(e)
	}
	if s.err == nil {
		s.err = e
	}
}
