package cache

// event is one pending pipeline step: a lookup that will respond, or a
// miss on its way to the MSHR file. The pipeline queues events on a
// slab.Wheel, which adds a link to each: 48 bytes a record.
type event struct {
	at   uint64
	tag  uint64
	line uint64
	lat  uint64 // for evRespond: latency to report
	kind uint8  // evRespond | evMiss
	wr   bool
}

const (
	evRespond uint8 = iota
	evMiss
)
