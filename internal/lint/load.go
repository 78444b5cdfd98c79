package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked module package.
type Package struct {
	// Path is the package's import path ("intervaljoin/internal/mr").
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Fset maps positions; shared by every package of one Loader.
	Fset *token.FileSet
	// Files are the parsed non-test files, in file-name order.
	Files []*ast.File
	// Types and Info are the type-checker's outputs.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module. It
// resolves module-internal imports from the module tree and everything else
// from the standard library via the source importer, so it needs neither
// network access nor third-party dependencies. A Loader is not safe for
// concurrent use.
type Loader struct {
	fset    *token.FileSet
	root    string // module root directory
	module  string // module path from go.mod
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at or above dir.
func NewLoader(dir string) (*Loader, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		root:    root,
		module:  module,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// Root returns the module root directory.
func (l *Loader) Root() string { return l.root }

// findModule walks upward from dir to the enclosing go.mod.
func findModule(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module directive in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer: module-internal paths load from the
// module tree, everything else from the standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load type-checks the module package with the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	dir := l.root
	if path != l.module {
		rel, ok := strings.CutPrefix(path, l.module+"/")
		if !ok {
			return nil, fmt.Errorf("lint: %s is not a package of module %s", path, l.module)
		}
		dir = filepath.Join(l.root, filepath.FromSlash(rel))
	}
	return l.LoadDir(dir, path)
}

// LoadDir type-checks the single package in dir under the given import
// path. Test files (_test.go) are excluded: ijlint checks the shipped
// code, and the hot-path rules explicitly exempt tests. Files whose
// //go:build (or legacy // +build) constraint evaluates false for the
// current GOOS/GOARCH are excluded the same way the go tool excludes
// them; file-name suffix conventions (_linux.go) are not interpreted —
// this module does not use them.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if buildConstraintExcludes(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: all Go files in %s are excluded by build constraints", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// buildConstraintExcludes reports whether the file carries a build
// constraint, in a comment preceding the package clause, that evaluates
// false for the current environment.
func buildConstraintExcludes(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue // not a constraint comment
			}
			if !expr.Eval(buildTagSatisfied) {
				return true
			}
		}
	}
	return false
}

// buildTagSatisfied is the constraint evaluator: the running GOOS, GOARCH,
// the gc toolchain, the unix umbrella, and released go1.N versions are
// true; everything else (custom tags like "never" or "integration") is
// false, matching an ijlint run with no -tags flag.
func buildTagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		switch runtime.GOOS {
		case "aix", "android", "darwin", "dragonfly", "freebsd", "hurd",
			"illumos", "ios", "linux", "netbsd", "openbsd", "solaris":
			return true
		}
		return false
	}
	if v, ok := strings.CutPrefix(tag, "go1."); ok {
		n, err := strconv.Atoi(v)
		if err != nil {
			return false
		}
		cur, ok := strings.CutPrefix(runtime.Version(), "go1.")
		if !ok {
			return true // devel toolchain: assume every release tag holds
		}
		if dot := strings.IndexByte(cur, '.'); dot >= 0 {
			cur = cur[:dot]
		}
		minor, err := strconv.Atoi(cur)
		if err != nil {
			return true
		}
		return n <= minor
	}
	return false
}

// Expand resolves package patterns relative to the module root into import
// paths: "./..." walks the whole module, "./dir/..." a subtree, "./dir" a
// single package, and a plain import path is used as-is. testdata trees and
// hidden directories are always skipped, exactly as the go tool does.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var out []string
	seen := make(map[string]bool)
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			paths, err := l.walk(l.root)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimSuffix(pat, "/..."), "./")))
			paths, err := l.walk(dir)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasPrefix(pat, "./"):
			rel := strings.TrimPrefix(pat, "./")
			if rel == "" || rel == "." {
				add(l.module)
			} else {
				add(l.module + "/" + filepath.ToSlash(rel))
			}
		default:
			add(pat)
		}
	}
	return out, nil
}

// walk collects the import paths of every package directory under dir.
func (l *Loader) walk(dir string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		pdir := filepath.Dir(path)
		rel, err := filepath.Rel(l.root, pdir)
		if err != nil {
			return err
		}
		ip := l.module
		if rel != "." {
			ip = l.module + "/" + filepath.ToSlash(rel)
		}
		if len(out) == 0 || out[len(out)-1] != ip {
			out = append(out, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
