package experiments

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime/debug"
	"sync"

	"rowsim/internal/sim"
)

// This file is the memo: the content-addressing scheme behind every
// cache of cells and trace sets, and the one build-once cache they
// index. Two cells — possibly from different sweeps or tenants — that
// hash to the same content key are guaranteed to produce the same
// sim.Result, because a cell is a pure function of (configuration,
// workload parameters, trace shape, seed) and of the simulator code
// itself. The code revision and sim.ModelVersion are therefore part of
// every key: another model's results are never served, even by an
// unstamped build whose revision is "dev".

var (
	codeRevOnce sync.Once
	codeRev     string
)

// CodeRev returns the VCS revision baked into the running binary by
// the Go toolchain, or "dev" for builds without VCS stamping (go test,
// uncommitted trees). It is folded into every content key so a memo
// cache never crosses simulator versions.
func CodeRev() string {
	codeRevOnce.Do(func() {
		codeRev = "dev"
		info, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		var rev, modified string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev == "" {
			return
		}
		codeRev = rev
		if modified == "true" {
			codeRev += "+dirty"
		}
	})
	return codeRev
}

// ContentKey hashes an ordered sequence of JSON-serializable parts —
// typically (config.Config, workload.Params, cores, instrs, seed) —
// together with CodeRev and sim.ModelVersion into a stable hex content
// address. Parts are length-prefixed by position so adjacent values
// cannot alias across boundaries, and JSON encoding of the repo's plain
// config/param structs is deterministic (fixed field order, no maps).
func ContentKey(parts ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	// Encode never fails for the plain structs and scalars this keys;
	// a failure would mean a non-serializable part, which is a
	// programming error the digest makes loudly visible by differing.
	_ = enc.Encode(CodeRev())
	_ = enc.Encode(sim.ModelVersion)
	for i, p := range parts {
		_ = enc.Encode(i)
		_ = enc.Encode(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Flight is a keyed cache of values built once however many callers
// want them: the first caller to ask for a key builds, callers asking
// while it builds wait for it, later callers find it. A Flight of
// capacity n > 0 keeps the n most recently used keys; capacity 0, the
// zero value's, keeps every key. It is safe for concurrent use.
type Flight[V any] struct {
	mu  sync.Mutex
	cap int
	idx map[string]*list.Element // of *flightEntry[V], also in lru
	lru list.List                // most recently used at the front
	n   FlightStats
}

// FlightStats counts what a Flight did: callers that built (Leads) and
// builds that succeeded (Builds), callers served a value someone else
// built (Hits), values dropped to make room (Evictions), and the values
// held now (Entries).
type FlightStats struct {
	Leads, Builds, Hits, Evictions uint64
	Entries                        int
}

// flightEntry is one key's value. Its builder sets v and ok under the
// Flight's lock and then closes ready; everyone else waits for ready
// and only reads.
type flightEntry[V any] struct {
	key   string
	el    *list.Element
	ready chan struct{}
	v     V
	ok    bool
}

// Get returns the value for key, building it when it is not there; led
// says this call built it. A build that fails — with an error, which
// Get returns, or a panic, which it re-raises — caches nothing: its
// waiters and later callers start over, the first of them building.
// A waiter whose ctx ends first returns ctx.Err() and leaves the build
// alone; a value already there is returned whatever ctx says.
func (f *Flight[V]) Get(ctx context.Context, key string, build func() (V, error)) (v V, led bool, err error) {
	for {
		f.mu.Lock()
		e, lead := f.claim(key)
		if lead {
			f.n.Leads++
		}
		f.mu.Unlock()
		if lead {
			v, err = f.lead(e, build)
			return v, true, err
		}
		select {
		case <-e.ready: // closed by the builder however its build ends
		default:
			select {
			case <-e.ready:
			case <-ctx.Done():
				return v, false, ctx.Err()
			}
		}
		if e.ok {
			f.mu.Lock()
			f.n.Hits++
			f.mu.Unlock()
			return e.v, false, nil
		}
	}
}

// Put stores v under key unless the key is there already, built or
// being built: a cache seeded from a journal never overwrites.
func (f *Flight[V]) Put(key string, v V) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e, lead := f.claim(key); lead {
		e.v, e.ok = v, true
		close(e.ready)
	}
}

// Stats returns the counters so far.
func (f *Flight[V]) Stats() FlightStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.n
	for el := f.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*flightEntry[V]).ok {
			n.Entries++
		}
	}
	return n
}

// resize sets the capacity; entries over it go at the next claim.
func (f *Flight[V]) resize(n int) {
	f.mu.Lock()
	f.cap = n
	f.mu.Unlock()
}

// claim returns the entry for key, most recently used from now on, and
// whether it is new and so the caller's to fill. f.mu is held.
func (f *Flight[V]) claim(key string) (e *flightEntry[V], lead bool) {
	if el, ok := f.idx[key]; ok {
		f.lru.MoveToFront(el)
		return el.Value.(*flightEntry[V]), false
	}
	// Make room by forgetting the least recently used; whoever still
	// holds one keeps it alive until they are done with it.
	for f.cap > 0 && f.lru.Len() >= f.cap {
		f.drop(f.lru.Back().Value.(*flightEntry[V]))
		f.n.Evictions++
	}
	if f.idx == nil {
		f.idx = make(map[string]*list.Element)
	}
	e = &flightEntry[V]{key: key, ready: make(chan struct{})}
	e.el = f.lru.PushFront(e)
	f.idx[key] = e.el
	return e, true
}

// drop forgets e, unless it went already. f.mu is held.
func (f *Flight[V]) drop(e *flightEntry[V]) {
	f.lru.Remove(e.el)
	if f.idx[e.key] == e.el {
		delete(f.idx, e.key)
	}
}

// lead builds e's value and publishes it, or withdraws e.
func (f *Flight[V]) lead(e *flightEntry[V], build func() (V, error)) (v V, err error) {
	built := false
	defer func() {
		f.mu.Lock()
		if built {
			e.v, e.ok = v, true
			f.n.Builds++
		} else {
			f.drop(e)
		}
		f.mu.Unlock()
		close(e.ready)
	}()
	v, err = build()
	built = err == nil
	return v, err
}
