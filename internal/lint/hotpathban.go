package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPathBan is the forbid-list that keeps the PR-1 hot-path migrations
// from silently regressing: reflection-driven and allocation-heavy stdlib
// helpers are banned from the engine packages (internal/core, internal/mr)
// outside tests, and in internal/core also the decimal-text codecs, whose
// records became fixed-width binary.
var HotPathBan = &Analyzer{
	Name: "hotpathban",
	Doc: "banned calls (sort.Slice, fmt.Sprintf, reflect.DeepEqual, strings.Split) in " +
		"the hot-path packages internal/core and internal/mr; decimal text " +
		"(strconv.ParseInt/Atoi/AppendInt, relation.DecodeTuple/EncodeTuple/AppendTuple) in internal/core",
	Run: runHotPathBan,
}

// bannedCalls maps "pkgpath.Func" to the replacement the diagnostic
// suggests.
var bannedCalls = map[string]string{
	"sort.Slice":        "slices.SortFunc with a concrete comparator",
	"fmt.Sprintf":       "strconv append-style formatting onto a byte buffer",
	"reflect.DeepEqual": "a hand-written comparison",
	"strings.Split":     "strings.Cut or strings.IndexByte over the string in place",
}

// binaryRecord is the replacement coreBannedCalls suggests.
const binaryRecord = "the fixed-width binary record codec (core/codec.go, relation.AppendBinary)"

// coreBannedCalls applies to internal/core alone, on top of bannedCalls: the
// records its map and reduce closures exchange are binary, so formatting or
// parsing a number as decimal text there is text creeping back. (internal/mr
// keeps strconv for its spill keys, package relation for relation files.)
var coreBannedCalls = map[string]string{
	"strconv.ParseInt":  binaryRecord,
	"strconv.Atoi":      binaryRecord,
	"strconv.AppendInt": binaryRecord,
	"intervaljoin/internal/relation.DecodeTuple": binaryRecord,
	"intervaljoin/internal/relation.EncodeTuple": binaryRecord,
	"intervaljoin/internal/relation.AppendTuple": binaryRecord,
}

// hotPathScope lists the package-path substrings the ban applies to.
var hotPathScope = []string{"internal/core", "internal/mr"}

func runHotPathBan(pass *Pass) {
	inScope := false
	for _, s := range hotPathScope {
		if strings.Contains(pass.Pkg.Path(), s) {
			inScope = true
			break
		}
	}
	if !inScope {
		return
	}
	inCore := strings.Contains(pass.Pkg.Path(), "internal/core")
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			full := fn.Pkg().Path() + "." + fn.Name()
			alt, banned := bannedCalls[full]
			if !banned && inCore {
				alt, banned = coreBannedCalls[full]
			}
			if banned {
				pass.Reportf(call.Pos(),
					"%s is banned in hot-path package %s; use %s", full, pass.Pkg.Path(), alt)
			}
			return true
		})
	}
}
