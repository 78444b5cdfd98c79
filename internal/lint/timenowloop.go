package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TimeNowLoop bans raw clock reads inside per-pair inner loops of the
// hot-path packages. The engine's phase timing reads the clock once per
// task (loop depth 1: the per-batch/per-key loops) — that is allowed. A
// time.Now() or time.Since() at syntactic for-nesting depth >= 2 sits in a
// per-pair loop (per value, per emission, per join candidate) where a
// clock read per iteration dwarfs the work being timed; such timing
// belongs in the obs tracer's per-task spans instead. The depth is counted
// per innermost function: a closure's body starts again at depth 0,
// because the closure itself is the unit handed to the engine.
var TimeNowLoop = &Analyzer{
	Name: "timenowloop",
	Doc: "raw time.Now()/time.Since() inside per-pair inner loops (for-nesting " +
		"depth >= 2) of internal/core and internal/mr; use per-task spans instead",
	Run: runTimeNowLoop,
}

// innerLoopDepth is the for-nesting depth at which a clock read counts as
// per-pair.
const innerLoopDepth = 2

func runTimeNowLoop(pass *Pass) {
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
	for _, file := range pass.Files {
		enclosingFuncs(file, func(body *ast.BlockStmt) {
			scanClockReads(pass, body)
		})
	}
}

// scanClockReads walks one function body tracking for-loop nesting via a
// stack of enclosing loop End positions (ast.Inspect is pre-order, so a
// node past the top loop's End has left that loop). Nested function
// literals are skipped: enclosingFuncs hands each body over separately,
// resetting the depth.
func scanClockReads(pass *Pass, body *ast.BlockStmt) {
	var ends []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		for len(ends) > 0 && n.Pos() >= ends[len(ends)-1] {
			ends = ends[:len(ends)-1]
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return false // its own body is scanned separately, depth reset
		case *ast.ForStmt:
			ends = append(ends, s.End())
		case *ast.RangeStmt:
			ends = append(ends, s.End())
		case *ast.CallExpr:
			if len(ends) >= innerLoopDepth {
				if name, ok := timeClockRead(pass.Info, s); ok {
					pass.Reportf(s.Pos(),
						"time.%s in a per-pair inner loop (for-nesting depth %d); time the task once and use the tracer's spans",
						name, len(ends))
				}
			}
		}
		return true
	})
}

// timeClockRead reports whether the call reads the wall clock via the time
// package (Now or Since), resolving through the type info so a local
// identifier named "time" is not mistaken for the package.
func timeClockRead(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return "", false
	}
	if fn.Name() == "Now" || fn.Name() == "Since" {
		return fn.Name(), true
	}
	return "", false
}
