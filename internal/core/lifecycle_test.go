package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLifecycleStaysSingle keeps Run the one lifecycle of a simulation: no
// non-test Go file of the main module outside internal/core calls
// core.NewSystem, and none outside internal/sim and internal/core spawns a
// process, so every run is built, faulted, run and reported in one place.
// Nested modules (the benchmark's perfbench) are not part of the main
// module and are skipped.
func TestLifecycleStaysSingle(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); rel != "." && err == nil {
				return filepath.SkipDir // a nested module
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		checked++
		dir := path.Dir(rel)
		coreName := ""
		for _, imp := range f.Imports {
			if ip, _ := strconv.Unquote(imp.Path.Value); ip == "pario/internal/core" {
				coreName = "core"
				if imp.Name != nil {
					coreName = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "NewSystem":
				if x, ok := sel.X.(*ast.Ident); ok && coreName != "" && x.Name == coreName && dir != "internal/core" {
					t.Errorf("%s: calls core.NewSystem; build runs through core.Run", fset.Position(call.Pos()))
				}
			case "Spawn":
				if dir != "internal/sim" && dir != "internal/core" {
					t.Errorf("%s: spawns a process; ranks are spawned by core.Run only", fset.Position(call.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 50 {
		t.Fatalf("checked only %d files: the walk missed the module", checked)
	}
}
