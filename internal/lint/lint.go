// Package lint is ijlint's analysis framework plus the nine
// domain-specific analyzers that mechanically enforce the engine's
// invariants: emitter escape discipline (emitterescape), sync.Pool hygiene
// (pooldiscipline), shard-lock guarding (shardlock), the hot-path
// forbid-list (hotpathban), the per-pair-loop clock-read ban
// (timenowloop), the columnar-kernel purity rule (colkernel), canonical
// lock ordering (lockorder), provable goroutine joins (goroutineleak) and
// error-flow discipline (errorflow).
//
// Since the interprocedural layer landed, analyzers also get flow facts:
// a module-wide call graph, per-function CFGs, and a forward dataflow
// engine (internal/lint/flow), exposed on the Pass. emitterescape,
// lockorder, goroutineleak and errorflow are built on it; the rest remain
// single-file AST walks.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer runs over a type-checked Pass and reports Diagnostics —
// but is built purely on the standard library (go/ast, go/types and the
// source importer), because this module deliberately carries no external
// dependencies. Analyzers written here would port to x/tools analyzers
// nearly mechanically if the module ever grows that dependency.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"

	"intervaljoin/internal/lint/flow"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects the package held by pass and reports findings via
	// pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions to file locations.
	Fset *token.FileSet
	// Files are the package's parsed (non-test) files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's recordings for the package.
	Info *types.Info
	// Flow is the interprocedural fact layer: the static call graph over
	// every package of the run (the whole module under RunModule, just
	// this package under RunAnalyzers) plus per-function CFGs and the
	// dataflow engine.
	Flow *flow.Graph
	// Unit is this package's view inside Flow.
	Unit *flow.Unit

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the nine ijlint analyzers in their canonical order.
func All() []*Analyzer {
	return []*Analyzer{
		EmitterEscape,
		PoolDiscipline,
		ShardLock,
		HotPathBan,
		TimeNowLoop,
		ColKernel,
		LockOrder,
		GoroutineLeak,
		ErrorFlow,
	}
}

// ByName resolves an analyzer by its Name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// unit builds the package's flow view.
func (pkg *Package) unit() *flow.Unit {
	return &flow.Unit{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}
}

// RunAnalyzers applies the analyzers to one package and returns the
// findings that are not suppressed by //lint:ignore directives, sorted by
// position. Interprocedural facts are scoped to the package; use
// RunModule for whole-module resolution and for unused-ignore findings.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	unit := pkg.unit()
	g := flow.Build([]*flow.Unit{unit})
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Flow:     g,
			Unit:     unit,
			diags:    &diags,
		}
		a.Run(pass)
	}
	diags = applyIgnores(collectDirectives([]*Package{pkg}), diags)
	sortDiagnostics(diags)
	return diags
}

// Timing is one analyzer's wall-clock cost over a RunModule call, summed
// across packages. The pseudo-entry "(callgraph)" reports the shared
// interprocedural graph construction.
type Timing struct {
	Analyzer string
	Wall     time.Duration
}

// RunModule applies the analyzers to every package over one module-wide
// call graph, so interprocedural analyzers see cross-package flows. On
// top of the analyzers' own findings it reports //lint:ignore directives
// that suppressed nothing (analyzer name "unusedignore"), so burned-down
// suppressions cannot rot in the tree.
func RunModule(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
	units := make([]*flow.Unit, len(pkgs))
	for i, pkg := range pkgs {
		units[i] = pkg.unit()
	}
	start := time.Now()
	g := flow.Build(units)
	timings := []Timing{{Analyzer: "(callgraph)", Wall: time.Since(start)}}
	var diags []Diagnostic
	for _, a := range analyzers {
		t0 := time.Now()
		for i, pkg := range pkgs {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Flow:     g,
				Unit:     units[i],
				diags:    &diags,
			}
			a.Run(pass)
		}
		timings = append(timings, Timing{Analyzer: a.Name, Wall: time.Since(t0)})
	}
	sites := collectDirectives(pkgs)
	diags = applyIgnores(sites, diags)
	diags = append(diags, unusedIgnores(sites, analyzers)...)
	sortDiagnostics(diags)
	return diags, timings
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

// namedTypeIs reports whether t (after stripping one level of pointer) is
// the named type pkgPathSuffix.name — suffix-matched on the package path so
// the check is robust to the module being vendored or renamed.
func namedTypeIs(t types.Type, pkgPathSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	path := obj.Pkg().Path()
	return path == pkgPathSuffix || hasPathSuffix(path, pkgPathSuffix)
}

// hasPathSuffix reports whether path ends in "/"+suffix.
func hasPathSuffix(path, suffix string) bool {
	return len(path) > len(suffix)+1 &&
		path[len(path)-len(suffix)-1] == '/' &&
		path[len(path)-len(suffix):] == suffix
}

// isBuiltin reports whether the call invokes the named builtin (panic,
// delete, ...), resolving through the type info so shadowed identifiers are
// not mistaken for the builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}

// enclosingFuncs yields every function body in file: declarations and
// literals, each paired with the node whose Body holds the statements.
func enclosingFuncs(file *ast.File, fn func(body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Body)
			}
		case *ast.FuncLit:
			fn(d.Body)
		}
		return true
	})
}

// usesObject reports whether the expression subtree mentions obj.
func usesObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
