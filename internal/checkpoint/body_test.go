package checkpoint

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"rowsim/internal/faults"
	"rowsim/internal/sim"
	"rowsim/internal/stats"
)

var (
	counterType   = reflect.TypeOf(stats.Counter{})
	meanType      = reflect.TypeOf(stats.Mean{})
	histogramType = reflect.TypeOf(stats.Histogram{})
)

// filler gives every exported field it reaches a value of its own: n
// counts the fields filled so far, and each takes a value derived from
// it, every fourth the extreme of its width (the largest unsigned, the
// most negative signed, a 10-byte varint at 64 bits) and every other
// signed one negative. Every slice gets two elements and every pointer
// a value; a stats accumulator is filled through UnmarshalBinary, its
// only way in from outside its package.
type filler struct {
	t *testing.T
	n uint64
}

func (f *filler) fill(v reflect.Value) {
	f.n++
	n := f.n
	switch v.Type() {
	case counterType, meanType, histogramType:
		b := binary.LittleEndian.AppendUint64(nil, n)
		switch v.Type() {
		case meanType:
			b = binary.LittleEndian.AppendUint64(b, n+1)
			binary.LittleEndian.PutUint64(b, math.Float64bits(-float64(n)-0.5))
		case histogramType: // sum, n, max, then two buckets
			for _, w := range []uint64{n + 1, math.Float64bits(float64(n) + 0.25), n + 2, n + 3} {
				b = binary.LittleEndian.AppendUint64(b, w)
			}
		}
		if err := v.Addr().Interface().(interface{ UnmarshalBinary([]byte) error }).UnmarshalBinary(b); err != nil {
			f.t.Fatal(err)
		}
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
		max := ^uint64(0) >> (64 - v.Type().Bits())
		if n%4 == 0 {
			v.SetUint(max)
		} else {
			v.SetUint(n%max + 1)
		}
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
		max := int64(^uint64(0) >> (65 - v.Type().Bits()))
		switch {
		case n%4 == 0:
			v.SetInt(-max - 1)
		case n%2 == 1:
			v.SetInt(-(int64(n) % max) - 1)
		default:
			v.SetInt(int64(n)%max + 1)
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			f.fill(s.Index(i))
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		f.fill(p.Elem())
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	default:
		f.t.Fatalf("the filler does not know %s", v.Type())
	}
}

// nilEmpty sets every empty slice reachable through exported fields to
// nil, the form a zero length decodes to.
func nilEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
		}
		for i := 0; i < v.Len(); i++ {
			nilEmpty(v.Index(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			nilEmpty(v.Index(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			nilEmpty(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				nilEmpty(v.Field(i))
			}
		}
	}
}

// TestBodyRoundTripsEveryField: the codec lists every field of every
// snapshot type, each with a coding that keeps its value. A snapshot
// whose every field holds a value of its own decodes to itself, and so
// do the zero snapshot and a real 8-core one taken mid-run with fault
// injection on, once its empty slices are nil.
func TestBodyRoundTripsEveryField(t *testing.T) {
	full := new(sim.SysSnap)
	f := &filler{t: t}
	f.fill(reflect.ValueOf(full).Elem())
	t.Logf("filled %d fields", f.n)

	real := midRunSnap(t, 8, 3000, 1024, true,
		sim.WithFaults(faults.Config{Seed: 9, JitterProb: 0.3, JitterMax: 12}))
	for _, tc := range []struct {
		name string
		snap *sim.SysSnap
	}{{"every field set", full}, {"zero", new(sim.SysSnap)}, {"mid-run", real}} {
		got, _, err := Decode("x", "k", mustEncode(t, tc.snap))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		nilEmpty(reflect.ValueOf(tc.snap).Elem())
		if !reflect.DeepEqual(got, tc.snap) {
			t.Errorf("%s: the decoded snapshot differs from the encoded one", tc.name)
		}
	}
}

// TestBudgetFitsEveryType checks allocPerByte's derivation: for every
// type a body holds a slice of or a pointer to, its size in memory is
// at most allocPerByte times its shortest encoding, so no valid body
// runs out of budget. A shortest encoding is a byte a number, bool,
// slice or pointer, a length byte and the fixed bytes an accumulator,
// and the sum of its fields a struct.
func TestBudgetFitsEveryType(t *testing.T) {
	var shortest func(reflect.Type) int
	shortest = func(ty reflect.Type) int {
		switch ty {
		case counterType:
			return 1 + 8
		case meanType:
			return 1 + 16
		case histogramType: // sum, n, max and a bucket
			return 1 + 32
		}
		switch ty.Kind() {
		case reflect.Array:
			return ty.Len() * shortest(ty.Elem())
		case reflect.Struct:
			n := 0
			for i := 0; i < ty.NumField(); i++ {
				if ty.Field(i).IsExported() {
					n += shortest(ty.Field(i).Type)
				}
			}
			return n
		}
		return 1
	}
	seen := map[reflect.Type]bool{}
	worst, worstType := 0.0, ""
	var walk func(reflect.Type)
	walk = func(ty reflect.Type) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Slice, reflect.Pointer:
			e := ty.Elem()
			if r := float64(e.Size()) / float64(shortest(e)); r > worst {
				worst, worstType = r, e.String()
			}
			walk(e)
		case reflect.Array:
			walk(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if ty.Field(i).IsExported() {
					walk(ty.Field(i).Type)
				}
			}
		}
	}
	walk(reflect.TypeOf(sim.SysSnap{}))
	if worst > allocPerByte {
		t.Fatalf("a %s takes %.1f bytes in memory per byte of its shortest encoding, more than allocPerByte (%d)", worstType, worst, allocPerByte)
	}
	t.Logf("worst ratio %.1f (%s) over %d types", worst, worstType, len(seen))
}
