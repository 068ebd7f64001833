// Package snapcheck is a test helper that keeps snapshots complete.
//
// Every stateful component that participates in mid-run checkpointing
// pairs a live struct (Core, Mesh, Dir, ...) with a snapshot struct
// (CoreSnap, MeshSnap, DirSnap, ...). The failure mode this package
// guards against is silent: someone adds a field to the live struct,
// forgets to serialize it, and checkpoint-resumed runs diverge from
// uninterrupted ones in ways no unit test of the new feature notices.
//
// Each package with a snapshot declares, in a white-box test, which
// live fields the snapshot captures and which are intentionally not
// captured (with the reason — rebuilt on restore, construction-time
// wiring, pure derived state). Assert then enumerates the live
// struct's fields by reflection and fails on anything unaccounted for,
// so adding a field without deciding its checkpoint story breaks the
// build's tests immediately.
package snapcheck

import (
	"reflect"
	"sort"
	"testing"
)

// Assert fails t unless every field of live's struct type is accounted
// for: named in serialized (captured by the snapshot) or present in
// derived (deliberately not captured, mapped to the reason why that is
// sound). A name in neither list, in both lists, or naming no field at
// all (a stale entry after a rename) is a failure.
func Assert(t testing.TB, live any, serialized []string, derived map[string]string) {
	t.Helper()
	typ := reflect.TypeOf(live)
	for typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	if typ.Kind() != reflect.Struct {
		t.Fatalf("snapcheck: %v is not a struct", typ)
	}

	ser := make(map[string]bool, len(serialized))
	for _, name := range serialized {
		if ser[name] {
			t.Errorf("snapcheck: %s: %q listed twice in serialized", typ, name)
		}
		ser[name] = true
	}
	fields := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		inSer, inDer := ser[name], false
		if _, ok := derived[name]; ok {
			inDer = true
		}
		switch {
		case inSer && inDer:
			t.Errorf("snapcheck: %s.%s is listed both serialized and derived — pick one", typ, name)
		case !inSer && !inDer:
			t.Errorf("snapcheck: %s.%s is not captured by the snapshot and not explained as derived/ephemeral — checkpoint-resume would silently lose it", typ, name)
		}
	}

	var stale []string
	for name := range ser {
		if !fields[name] {
			stale = append(stale, name)
		}
	}
	for name := range derived {
		if !fields[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("snapcheck: %s has no field %q (renamed or removed? update the snapshot inventory)", typ, name)
	}
}
