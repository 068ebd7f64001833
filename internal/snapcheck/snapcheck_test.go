package snapcheck

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// recorder is a testing.TB that keeps the failures Assert reports.
type recorder struct {
	testing.TB
	msgs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}

func (r *recorder) Fatalf(format string, args ...any) {
	r.Errorf(format, args...)
	runtime.Goexit()
}

// failures runs Assert against a recorder and returns what it reported.
func failures(live any, serialized []string, derived map[string]string) []string {
	r := &recorder{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Assert(r, live, serialized, derived)
	}()
	<-done
	return r.msgs
}

type live struct{ a, b, c int }

// TestAssertReportsEveryGap: each way an inventory can go wrong fails
// with a message naming the type and the field, and a complete one
// fails nothing.
func TestAssertReportsEveryGap(t *testing.T) {
	why := "rebuilt on restore"
	cases := []struct {
		name       string
		live       any
		serialized []string
		derived    map[string]string
		want       []string
	}{
		{"complete", &live{}, []string{"a", "b"}, map[string]string{"c": why}, nil},
		{"a field in neither list", live{}, []string{"a", "b"}, nil, []string{
			"snapcheck: snapcheck.live.c is not captured by the snapshot and not explained as derived/ephemeral — checkpoint-resume would silently lose it",
		}},
		{"a field in both lists", live{}, []string{"a", "b", "c"}, map[string]string{"c": why}, []string{
			"snapcheck: snapcheck.live.c is listed both serialized and derived — pick one",
		}},
		{"a field listed twice", live{}, []string{"a", "b", "a"}, map[string]string{"c": why}, []string{
			`snapcheck: snapcheck.live: "a" listed twice in serialized`,
		}},
		{"stale names, sorted", live{}, []string{"a", "b", "z"}, map[string]string{"c": why, "y": why}, []string{
			`snapcheck: snapcheck.live has no field "y" (renamed or removed? update the snapshot inventory)`,
			`snapcheck: snapcheck.live has no field "z" (renamed or removed? update the snapshot inventory)`,
		}},
		{"not a struct", 7, nil, nil, []string{"snapcheck: int is not a struct"}},
	}
	for _, tc := range cases {
		if got := failures(tc.live, tc.serialized, tc.derived); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
