package detcheck

import (
	"go/ast"
	"sort"
	"testing"

	"repro/internal/analysis"
)

// TestHotpathRootsDeclared loads the packages the hotpath analyzer
// scopes itself to and requires every hotpathRoots name to be a
// function or method with a body in one of them. Roots resolve by
// name only, so a name declared nowhere there marks nothing and gates
// nothing.
func TestHotpathRootsDeclared(t *testing.T) {
	var paths []string
	for path := range hotpathPkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	pkgs, err := analysis.Load(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(paths) {
		t.Fatalf("loaded %d packages, want %d (%v)", len(pkgs), len(paths), paths)
	}
	declared := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					declared[fd.Name.Name] = true
				}
			}
		}
	}
	for name := range hotpathRoots {
		if !declared[name] {
			t.Errorf("hotpath root %q is declared in none of %v", name, paths)
		}
	}
}
