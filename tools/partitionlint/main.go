// Command partitionlint is the repo's go vet-style guard for the N-way
// partition refactor: it fails when non-test code in the core packages
// hard-wires the historical pair through the string literals "ETH",
// "ETC", "eth" or "etc". Partition identity must flow from the registry
// (Scenario.PartitionSpecs / sim.Registry), never from baked-in names —
// a hard-wired literal is exactly the kind of two-way assumption the
// refactor removed.
//
// The scan parses every non-test Go file under the given directories
// (default: the root package, internal/ and cmd/) and flags string
// literals exactly equal to a banned name. Comments never match, and
// longer strings that merely contain a name (usage examples, log
// formats) never match either.
//
// A small allowlist covers the places that intentionally speak about the
// historical pair:
//
//   - internal/sim/historical.go  (the historical pair's two partition specs)
//   - internal/chain/config.go    (the historical ETH/ETC chain configs)
//   - cmd/forknode/main.go        (a single historical node by name)
//
// Usage:
//
//	go run ./tools/partitionlint [dir ...]
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// banned are the literals that signal a hard-wired two-way assumption.
var banned = map[string]bool{
	`"ETH"`: true,
	`"ETC"`: true,
	`"eth"`: true,
	`"etc"`: true,
}

// allowed are repo-relative files that legitimately name the historical
// pair.
var allowed = map[string]bool{
	"internal/sim/historical.go": true,
	"internal/chain/config.go":   true,
	"cmd/forknode/main.go":       true,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("partitionlint: ")

	root, err := os.Getwd()
	if err != nil {
		log.Fatal(err)
	}
	targets := os.Args[1:]
	if len(targets) == 0 {
		targets = defaultTargets(root)
	}

	var findings []string
	fset := token.NewFileSet()
	for _, t := range targets {
		err := filepath.WalkDir(t, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				rel = path
			}
			rel = filepath.ToSlash(rel)
			if allowed[rel] {
				return nil
			}
			findings = append(findings, lintFile(fset, path, rel)...)
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	sort.Strings(findings)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		log.Fatalf("%d hard-wired partition literal(s); route them through the partition registry or extend the allowlist", len(findings))
	}
}

// defaultTargets scans the root package's own files plus internal/ and
// cmd/ (WalkDir on the individual root files keeps tools/ and bench/ out
// of scope).
func defaultTargets(root string) []string {
	targets, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		log.Fatal(err)
	}
	for _, dir := range []string{"internal", "cmd"} {
		if _, err := os.Stat(filepath.Join(root, dir)); err == nil {
			targets = append(targets, filepath.Join(root, dir))
		}
	}
	return targets
}

// lintFile parses one file and returns a finding per banned literal.
func lintFile(fset *token.FileSet, path, rel string) []string {
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return []string{fmt.Sprintf("%s: parse error: %v", rel, err)}
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING || !banned[lit.Value] {
			return true
		}
		pos := fset.Position(lit.Pos())
		out = append(out, fmt.Sprintf("%s:%d:%d: hard-wired partition literal %s", rel, pos.Line, pos.Column, lit.Value))
		return true
	})
	return out
}
