// Package sim is the suppression-parser fixture: malformed directives
// are themselves findings, well-formed ones silence and are counted.
package sim

// Registry is keyed by workload name.
type Registry map[string]int

// MissingReason has a directive with no justification: the directive
// is a finding AND the map range stays active.
func MissingReason(r Registry) int {
	n := 0
	//rowlint:ignore maporder
	for _, v := range r { // want: maporder still active
		n += v
	}
	return n
}

// UnknownAnalyzer names an analyzer that does not exist: the directive
// is a finding AND the map range stays active.
func UnknownAnalyzer(r Registry) int {
	n := 0
	//rowlint:ignore mapsort typo of the analyzer name
	for _, v := range r { // want: maporder still active
		n += v
	}
	return n
}

// UnknownVerb uses an unrecognized directive verb: a finding.
func UnknownVerb(r Registry) int {
	//rowlint:disable maporder wrong verb entirely
	return len(r)
}

// BareIgnore gives neither analyzer nor reason: a finding.
func BareIgnore(r Registry) int {
	//rowlint:ignore
	return len(r)
}

// WellFormed silences with analyzer and reason, trailing placement:
// suppressed and counted.
func WellFormed(r Registry) bool {
	for _, v := range r { //rowlint:ignore maporder boolean OR is order-independent
		if v != 0 {
			return true
		}
	}
	return false
}

// LeftoverSeam carries a directive from a retired grammar: rowlint no
// longer knows the verb, so it is a finding like any other.
//
//rowlint:seam reduction first-error latch
func LeftoverSeam(r Registry) int {
	return len(r)
}
