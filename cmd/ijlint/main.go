// Command ijlint runs the module's domain-specific static analyzers: the
// invariants the MapReduce interval-join engine depends on but the compiler
// cannot check. It is wired into scripts/check.sh between vet and build;
// run it standalone with
//
//	go run ./cmd/ijlint ./...
//
// All requested packages are analyzed over one module-wide call graph, so
// the interprocedural analyzers (lockorder, goroutineleak, errorflow,
// emitterescape) see cross-package flows, and //lint:ignore directives
// that no longer suppress anything are themselves findings.
//
// Findings can be suppressed with a //lint:ignore <analyzer> <reason>
// comment on (or immediately above) the offending line; the reason is
// mandatory. Exit status is 1 when any finding remains.
//
// Machine-readable output: -json FILE writes the findings as JSON, and
// -annotate-from FILE re-renders a findings file as GitHub Actions
// ::error annotations without re-analyzing — CI runs the analysis once,
// uploads the JSON as an artifact, and annotates from it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"intervaljoin/internal/lint"
)

// findingsFile is the -json output shape, consumed by -annotate-from.
type findingsFile struct {
	Findings []finding `json:"findings"`
	Count    int       `json:"count"`
}

type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	var (
		list     = flag.Bool("list", false, "list the analyzers and exit")
		only     = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		jsonOut  = flag.String("json", "", "also write findings to this file as JSON")
		timing   = flag.Bool("time", false, "print per-analyzer wall time to stderr")
		annotate = flag.String("annotate-from", "", "emit GitHub ::error annotations from a -json findings file and exit (no analysis)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ijlint [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the engine's invariant analyzers over module packages (default ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *annotate != "" {
		if err := annotateFrom(*annotate); err != nil {
			fatalf("%v", err)
		}
		return
	}

	analyzers := lint.All()
	if *only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fatalf("unknown analyzer %q (use -list)", name)
			}
			analyzers = append(analyzers, a)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		fatalf("%v", err)
	}
	paths, err := loader.Expand(flag.Args())
	if err != nil {
		fatalf("%v", err)
	}

	var pkgs []*lint.Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fatalf("%v", err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, timings := lint.RunModule(pkgs, analyzers)

	out := findingsFile{Findings: []finding{}}
	for _, d := range diags {
		d = relativize(loader.Root(), d)
		fmt.Println(d)
		out.Findings = append(out.Findings, finding{
			File:     filepath.ToSlash(d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	out.Count = len(out.Findings)

	if *timing {
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "%-16s %10.1fms\n", tm.Analyzer, float64(tm.Wall.Microseconds())/1000)
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	if out.Count > 0 {
		fmt.Fprintf(os.Stderr, "ijlint: %d finding(s)\n", out.Count)
		os.Exit(1)
	}
}

// annotateFrom renders a findings JSON file as GitHub Actions workflow
// commands, one ::error per finding, so findings show up inline on the PR
// diff. Messages have their newlines escaped per the workflow-command
// encoding (irrelevant for ijlint's single-line messages, but cheap).
func annotateFrom(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var in findingsFile
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	for _, f := range in.Findings {
		fmt.Printf("::error file=%s,line=%d,col=%d,title=ijlint %s::%s [%s]\n",
			f.File, f.Line, f.Col, f.Analyzer, esc.Replace(f.Message), f.Analyzer)
	}
	return nil
}

// relativize shortens the diagnostic's file name relative to the module
// root for stable, readable output.
func relativize(root string, d lint.Diagnostic) lint.Diagnostic {
	if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		d.Pos.Filename = rel
	}
	return d
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ijlint: "+format+"\n", args...)
	os.Exit(1)
}
