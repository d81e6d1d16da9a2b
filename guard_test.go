package pario_test

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

// TestModuleGuards walks every non-test Go file of the main module once and
// keeps its structure single:
//
//   - one lifecycle: no file outside internal/core calls core.NewSystem, and
//     none outside internal/sim and internal/core spawns a process, so every
//     run is built, faulted, run and reported by core.Run;
//   - one binding: no file outside internal/request, internal/roofline and
//     the apps themselves imports an app package, so every app run, from
//     the daemon, a CLI, an artifact or an example, is a request.Request
//     bound by internal/request.
//
// Nested modules (the benchmark's perfbench) are not part of the main
// module and are skipped, as are testdata directories.
func TestModuleGuards(t *testing.T) {
	if _, err := os.Stat("go.mod"); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(p)
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
			ip, _ := strconv.Unquote(imp.Path.Value)
			if ip == "pario/internal/core" {
				coreName = "core"
				if imp.Name != nil {
					coreName = imp.Name.Name
				}
			}
			if strings.HasPrefix(ip, "pario/internal/apps/") && dir != "internal/request" &&
				dir != "internal/roofline" && !strings.HasPrefix(dir, "internal/apps/") {
				t.Errorf("%s: imports %s; app runs bind through internal/request", fset.Position(imp.Pos()), ip)
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
