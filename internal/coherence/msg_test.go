package coherence

import (
	"testing"
	"unsafe"
)

// TestMsgSize pins a message at 48 bytes: the line and the four ints
// first, the three one-byte fields last. Every hop copies a message
// (the mesh's event heap and inboxes, the directory's queues, a
// cache's stalled table), so padding costs on every send.
func TestMsgSize(t *testing.T) {
	if got := unsafe.Sizeof(Msg{}); got != 48 {
		t.Fatalf("Msg is %d bytes, want 48", got)
	}
}
