// Package fixture exercises the hotpathban analyzer. The harness loads it
// under an import path inside internal/core, which puts it in the
// hot-path scope; a second load under a neutral path checks the scoping.
package fixture

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// sortBanned uses closure-driven sort.Slice in the hot path: flagged.
func sortBanned(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) // want `sort\.Slice is banned in hot-path package`
}

// sprintfBanned formats with fmt in the hot path: flagged.
func sprintfBanned(n int) string {
	return fmt.Sprintf("n=%d", n) // want `fmt\.Sprintf is banned in hot-path package`
}

// deepEqualBanned compares with reflection: flagged.
func deepEqualBanned(a, b []int) bool {
	return reflect.DeepEqual(a, b) // want `reflect\.DeepEqual is banned in hot-path package`
}

// splitBanned allocates a slice of fields per record: flagged.
func splitBanned(rec string) int {
	return len(strings.Split(rec, ",")) // want `strings\.Split is banned in hot-path package`
}

// textBanned parses and formats decimal text where records are binary:
// flagged in internal/core (this fixture's load path), not in internal/mr.
func textBanned(rec string, buf []byte) ([]byte, int64) {
	n, _ := strconv.Atoi(rec)                       // want `strconv\.Atoi is banned in hot-path package`
	id, _ := strconv.ParseInt(rec, 10, 64)          // want `strconv\.ParseInt is banned in hot-path package`
	return strconv.AppendInt(buf, id, 10), int64(n) // want `strconv\.AppendInt is banned in hot-path package`
}

// suppressed demonstrates the escape hatch; the reason is mandatory.
func suppressed(n int) string {
	//lint:ignore hotpathban fixture demonstrates the annotated cold-path escape hatch
	return fmt.Sprintf("cold=%d", n)
}

// compliant uses the replacements the diagnostics suggest.
func compliant(xs []int, n int) string {
	slices.Sort(xs)
	head, _, _ := strings.Cut("n,m", ",")
	return head + "=" + strconv.Itoa(n)
}

// errorsAllowed shows fmt.Errorf is not on the ban list.
func errorsAllowed(n int) error {
	return fmt.Errorf("bad n: %d", n)
}

var _ = []any{sortBanned, sprintfBanned, deepEqualBanned, splitBanned, textBanned, suppressed, compliant, errorsAllowed}
