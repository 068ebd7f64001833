// Package coherence implements a blocking, directory-based MESI
// protocol in the style of the GEMS protocols used by the paper.
//
// The directory lives at the shared L3 banks. Requests for a line are
// serialized by transient Blocked states: while a transaction is in
// flight the directory queues younger requests for the same line, and
// the requestor closes the transaction with an Unblock message. Owners
// answer forwarded requests cache-to-cache; an owner whose line is
// locked by an in-flight atomic (cache locking, Section II of the
// paper) stalls the forwarded request until the atomic unlocks.
//
// This blocking behaviour is what produces the two phenomena the paper
// builds on: (1) contended lines acquired from remote private caches
// exhibit much higher fill latency than any non-contended access, and
// (2) the invalidation for a contended line can reach a core after its
// atomic has already unlocked (Fig. 8), which motivates the
// directory-latency contention detector.
//
// A bank keeps an entry for every line it has seen, so a warm 32-core
// run holds hundreds of thousands of them; they are stored by value,
// not one heap object each. A dirEntry is 32 bytes without a pointer:
// core numbers are int8 (the sharer mask caps a system at 64 cores),
// and a line's stalled requests sit in one of the bank's reusable
// queues, which the entry names by number while its line is blocked.
// The entries live in a lineTable, in insertion order, in chunks that
// never move, each as large as the table so far up to 1024 entries
// (32 KB); an open-addressed []int32 index at most half full finds
// them by linear probing from a Fibonacci hash of the line. Nothing in
// the table depends on the host, and nothing walks it in index order:
// LinesKnown sorts, and PendingWork and RetainedMsgs look at the
// queues, not the lines. Restore sizes a table to the snapshot's lines
// exactly; a fresh bank starts with 8 index slots and grows by
// doubling.
package coherence

import "fmt"

// MsgType enumerates protocol messages.
type MsgType uint8

const (
	// MsgGetS requests read permission (core -> directory).
	MsgGetS MsgType = iota
	// MsgGetX requests write permission (core -> directory).
	MsgGetX
	// MsgPutX writes back and relinquishes an M/E line (core -> directory).
	MsgPutX
	// MsgData carries the line to the requestor (directory or remote
	// cache -> core).
	MsgData
	// MsgFwdGetS asks the owner to send the line to a reader
	// (directory -> owner core).
	MsgFwdGetS
	// MsgFwdGetX asks the owner to send the line to a writer and
	// invalidate itself (directory -> owner core).
	MsgFwdGetX
	// MsgInv asks a sharer to invalidate (directory -> core).
	MsgInv
	// MsgInvAck acknowledges an invalidation (sharer -> requestor core).
	MsgInvAck
	// MsgUnblock closes a read transaction (requestor -> directory).
	MsgUnblock
	// MsgUnblockX closes a write transaction (requestor -> directory).
	MsgUnblockX
	// MsgGetFar asks the directory to perform the RMW at the L3 bank
	// ("far atomics", the near/far axis of the paper's Section VII):
	// the line is recalled from any private holder and updated in
	// place, and no copy migrates to the requestor.
	MsgGetFar
	// MsgFarDone returns the far RMW's result to the requestor.
	MsgFarDone
)

// String returns the protocol mnemonic.
func (t MsgType) String() string {
	switch t {
	case MsgGetS:
		return "GetS"
	case MsgGetX:
		return "GetX"
	case MsgPutX:
		return "PutX"
	case MsgData:
		return "Data"
	case MsgFwdGetS:
		return "FwdGetS"
	case MsgFwdGetX:
		return "FwdGetX"
	case MsgInv:
		return "Inv"
	case MsgInvAck:
		return "InvAck"
	case MsgUnblock:
		return "Unblock"
	case MsgUnblockX:
		return "UnblockX"
	case MsgGetFar:
		return "GetFar"
	case MsgFarDone:
		return "FarDone"
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// GrantState is the coherence state granted with a Data response.
type GrantState uint8

const (
	// GrantS grants shared (read-only) permission.
	GrantS GrantState = iota
	// GrantE grants exclusive clean permission.
	GrantE
	// GrantM grants modified permission.
	GrantM
)

// Msg is one protocol message. Node IDs: cores are 0..NumCores-1,
// directory banks are NumCores..NumCores+Banks-1.
//
// Ownership of a message travels with the value (sender builds it,
// network carries it, consumer releases it — see MsgPool), so the
// current holder may read and write it freely.
type Msg struct {
	Type MsgType
	Line uint64 // line address (low bits cleared)
	Src  int    // sending node
	Dst  int    // receiving node

	// Requestor is the core that started the transaction. On
	// forwarded requests it tells the owner where to send Data; on
	// invalidations it tells sharers where to send InvAck.
	Requestor int

	// Grant is the state conveyed by a Data response.
	Grant GrantState
	// AckCount is the number of InvAcks the requestor must collect
	// before using a Data response.
	AckCount int
	// FromPrivate marks a Data response served cache-to-cache from a
	// remote private cache (the signal used by the RW+Dir contention
	// detector).
	FromPrivate bool
}

// String renders the message for debugging.
func (m *Msg) String() string {
	return fmt.Sprintf("%s line=%#x %d->%d req=%d acks=%d", m.Type, m.Line, m.Src, m.Dst, m.Requestor, m.AckCount)
}

// Network abstracts message transport so the protocol agents do not
// depend on the interconnect implementation.
type Network interface {
	// Send enqueues m for delivery; latency is derived from the
	// src/dst placement.
	Send(m *Msg)
	// SendAfter enqueues m with extra cycles of source-side delay
	// (e.g. L3 or DRAM access time before the response leaves).
	SendAfter(m *Msg, extra uint64)
}
