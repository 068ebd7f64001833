package coherence

import "testing"

// TestProtocolErrorText pins the report a failing run prints: the
// cycle, component and reason always, then each optional part only when
// the raising component filled it in.
func TestProtocolErrorText(t *testing.T) {
	cases := []struct {
		name string
		err  *ProtocolError
		want string
	}{
		{
			name: "reason only",
			err:  &ProtocolError{Cycle: 7, Component: "mesh", Reason: "message addressed to unknown node 40 (have 8)"},
			want: "protocol error at cycle 7: mesh: message addressed to unknown node 40 (have 8)",
		},
		{
			name: "every part",
			err: &ProtocolError{
				Cycle: 1200, Component: "directory bank 2", Line: 0x4c0,
				Op: "Unblock src=3 dst=6", State: "busy requestor=1", Reason: "Unblock from a core that is not the requestor",
				Trace: []string{"cycle 1100: GetX arrives 1130", "cycle 1190: Unblock arrives 1200"},
			},
			want: "protocol error at cycle 1200: directory bank 2: Unblock from a core that is not the requestor" +
				" [op Unblock src=3 dst=6] line=0x4c0 state={busy requestor=1}\n" +
				"message trace (oldest first):\n" +
				"  cycle 1100: GetX arrives 1130\n" +
				"  cycle 1190: Unblock arrives 1200",
		},
	}
	for _, tc := range cases {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
