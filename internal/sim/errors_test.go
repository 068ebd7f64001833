package sim

import (
	"context"
	"strings"
	"testing"
)

// TestWaitEdgeRendering pins the one-hop formats a human reads first
// when a deadlock report fires: bank state present, bank state lost on
// the wire, and the cache-locking "stalled" annotation.
func TestWaitEdgeRendering(t *testing.T) {
	cases := []struct {
		name string
		edge WaitEdge
		want []string
	}{
		{
			name: "full hop with bank state",
			edge: WaitEdge{Core: 2, Line: 0x4c0, Bank: 1, CacheDesc: "MSHR GetX pending", BankDesc: "busy: awaiting Unblock", Next: 3},
			want: []string{
				"core 2 waits on line 0x4c0 (MSHR GetX pending)",
				"bank 1: busy: awaiting Unblock",
				"-> core 3",
			},
		},
		{
			name: "message lost on the wire",
			edge: WaitEdge{Core: 0, Line: 0x80, Bank: 2, CacheDesc: "MSHR Get pending", BankDesc: "", Next: -1},
			want: []string{
				"core 0 waits on line 0x80",
				"bank 2: no transaction in flight (message on the wire or lost)",
			},
		},
		{
			name: "next holder stalls the external request (cache locking)",
			edge: WaitEdge{Core: 1, Line: 0x100, Bank: 0, CacheDesc: "GetX sent at cycle 40", BankDesc: "busy", Stalled: true, Next: 2},
			want: []string{
				"-> core 2 (holds the line locked; external request stalled)",
			},
		},
	}
	for _, tc := range cases {
		s := tc.edge.String()
		for _, w := range tc.want {
			if !strings.Contains(s, w) {
				t.Errorf("%s: rendering %q lacks %q", tc.name, s, w)
			}
		}
	}
	// A chain dead-ending without a bank must not invent one.
	noBank := WaitEdge{Core: 5, Line: 0x40, Bank: -1, CacheDesc: "MSHR Get pending", Next: -1}
	if s := noBank.String(); strings.Contains(s, "bank") {
		t.Errorf("bankless edge mentions a bank: %q", s)
	}
}

// TestDeadlockErrorRendering: the full report distinguishes a genuine
// cycle from a dead-ended chain, and lists every hop in order.
func TestDeadlockErrorRendering(t *testing.T) {
	chain := []WaitEdge{
		{Core: 0, Line: 0x4c0, Bank: 1, CacheDesc: "MSHR GetX", BankDesc: "busy", Next: 1},
		{Core: 1, Line: 0x500, Bank: 0, CacheDesc: "MSHR GetX", BankDesc: "busy", Stalled: true, Next: 0},
	}
	cyclic := &DeadlockError{Cycle: 99999, Window: 4096, Chain: chain, Cyclic: true}
	s := cyclic.Error()
	for _, w := range []string{
		"deadlock cycle",
		"no commit for 4096 cycles at cycle 99999",
		"wait-for chain:",
		"core 0 waits on line 0x4c0",
		"core 1 waits on line 0x500",
	} {
		if !strings.Contains(s, w) {
			t.Errorf("cyclic report %q lacks %q", s, w)
		}
	}
	// The two hops must render in walk order (core 0's edge first).
	if strings.Index(s, "core 0 waits") > strings.Index(s, "core 1 waits") {
		t.Errorf("chain hops out of order:\n%s", s)
	}

	deadEnd := &DeadlockError{Cycle: 512, Window: 256, Chain: chain[:1], Cyclic: false}
	if ds := deadEnd.Error(); !strings.Contains(ds, "no progress") || strings.Contains(ds, "deadlock cycle") {
		t.Errorf("dead-ended chain mislabeled: %q", ds)
	}
}

// TestErrorTexts pins the first line a failing run prints for each of
// the run's other error types, and that a cycle-limit report carries
// its state dump.
func TestErrorTexts(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{
			&CoherenceViolationError{Line: 0x4c0, Holders: []Holder{{Core: 0, State: 3}, {Core: 2, State: 1}}},
			"coherence violation: line 0x4c0 held exclusively but valid in 2 caches (c0=M c2=S)",
		},
		{
			&CycleLimitError{MaxCycles: 300, Cycle: 301},
			"sim: exceeded MaxCycles=300 at cycle 301",
		},
		{
			&CycleLimitError{MaxCycles: 300, Cycle: 301, Dump: "core0{...}"},
			"sim: exceeded MaxCycles=300 at cycle 301\ncore0{...}",
		},
		{
			&RunCanceledError{Cycle: 4096, Cause: context.DeadlineExceeded},
			"sim: run stopped at cycle 4096: context deadline exceeded",
		},
	}
	for _, tc := range cases {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("%T:\n got %q\nwant %q", tc.err, got, tc.want)
		}
	}
}
