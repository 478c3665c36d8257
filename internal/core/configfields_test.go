package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestEveryConfigFieldIsSet fails on a field of the layer configs that
// no non-test code in the module sets: a knob nothing can turn is either
// dead code or a constant. A field counts as set when it is a key of a
// composite literal (DefaultConfig's included) or a name in the selector
// chain on an assignment's left-hand side, in a file of the declaring
// package or one that imports it.
func TestEveryConfigFieldIsSet(t *testing.T) {
	root, module := moduleRoot(t)
	configs := []struct{ pkg, typ string }{
		{"internal/gateway", "Config"},
		{"internal/farm", "Config"},
		{"internal/vmm", "HostConfig"},
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		files = append(files, f)
		dirs = append(dirs, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range configs {
		var fields []string
		set := map[string]bool{}
		for i, f := range files {
			if dirs[i] == c.pkg {
				fields = append(fields, structFields(f, c.typ)...)
			} else if !imports(f, module+"/"+c.pkg) {
				continue
			}
			collectSetFields(f, set)
		}
		if len(fields) == 0 {
			t.Fatalf("no struct %s declared in %s", c.typ, c.pkg)
		}
		for _, name := range fields {
			if !set[name] {
				t.Errorf("%s.%s: nothing outside tests sets it (delete it, or make it a constant)", filepath.Base(c.pkg), c.typ+"."+name)
			}
		}
	}
}

// moduleRoot returns the directory holding go.mod and the module path
// it declares.
func moduleRoot(t *testing.T) (dir, module string) {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest)
				}
			}
			t.Fatalf("%s/go.mod declares no module", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test's directory")
		}
		dir = parent
	}
}

// structFields lists the field names of the struct type typ declared in f.
func structFields(f *ast.File, typ string) []string {
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != typ {
			return true
		}
		if st, ok := ts.Type.(*ast.StructType); ok {
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					names = append(names, name.Name)
				}
			}
		}
		return false
	})
	return names
}

// imports reports whether f imports path.
func imports(f *ast.File, path string) bool {
	return slices.ContainsFunc(f.Imports, func(spec *ast.ImportSpec) bool {
		p, err := strconv.Unquote(spec.Path.Value)
		return err == nil && p == path
	})
}

// collectSetFields adds to set every composite-literal key and every
// selector name on an assignment's left-hand side in f.
func collectSetFields(f *ast.File, set map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						set[key.Name] = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				for e := lhs; e != nil; {
					switch x := e.(type) {
					case *ast.SelectorExpr:
						set[x.Sel.Name] = true
						e = x.X
					case *ast.IndexExpr:
						e = x.X
					case *ast.StarExpr:
						e = x.X
					case *ast.ParenExpr:
						e = x.X
					default:
						e = nil
					}
				}
			}
		}
		return true
	})
}
