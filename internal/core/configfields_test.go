package core

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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

// exportAllowlist names the exports in internal/ and the root package
// that no non-test code uses and that stay anyway, each with the test in
// another package or the ROADMAP item that needs it. Keys are
// "pkg.Name" for a top-level identifier and "pkg.Type.Method" for a
// method, pkg being the directory under internal/, or potemkin for the
// root package.
var exportAllowlist = map[string]string{
	"core.ShardEngine.FaultLog":        "cluster's TestFaultScheduleAcrossModes compares the cluster's fault log with the engine's",
	"core.ShardEngine.InjectBarrier":   "cluster's runOracleConfig (TestFaultScheduleAcrossModes, metrics_test.go) seeds the single-process oracle with it",
	"core.ShardEngine.RecycleAll":      "the root TestRegistryEqualsStatsAtRest recycles every binding through it",
	"core.ShardEngine.SetAdaptive":     "the root TestWireParallelAdaptiveSnapback and TestValidateParallelConstraints set the epoch cap with it",
	"gateway.Gateway.Binding":          "farm's TestCrashWhileClonePendingRetriesOnSurvivor and the root TestShardedGatewayThroughFacade look bindings up with it",
	"gateway.Gateway.Scrub":            "the root BenchmarkAblationScrub, which make bench requires, times one pass",
	"gateway.JSONLSink":                "the oracle of gateway's TestArenaSinkMatchesJSONLSink, and analysis's TestAnalyzeRealIncident writes its event logs",
	"mem.AddressSpace.PrivatePages":    "vmm's TestFlashCloneSharesMemory, farm's TestGuestWorkloadRunsOnFarmVMs and guest's TestMemoryWorkloadGrowsThenPlateaus measure a VM's private pages",
	"metrics.Table.NumRows":            "analysis's TestTimelinesTable and core's experiment and chaos tests count table rows",
	"metrics.Table.Row":                "analysis's TestTimelinesTable and core's experiment tests read table cells",
	"netsim.ICMPEcho":                  "guest's TestICMPEchoReply and farm's TestRandomTrafficInvariants send pings",
	"telescope.Record.Equal":           "ingest's TestPcapSourceRoundTrip, cmd/telescope's TestPcapRoundTrip and scenario's TestBuiltinsCompileDeterministically compare records",
	"vmm.VMHost.CheckMemoryInvariants": "fault's TestRandomFaultScheduleInvariants and farm's tests (export_test.go's CheckInvariants) check frame refcounts",
	"vmm.VMHost.Restore":               "ROADMAP item 4 (recover from state) restores from checkpoints; mem's model test drives it",
}

// TestEveryExportHasACaller fails on an exported top-level identifier in
// internal/, an exported method of an exported type there, or an
// unexported function or method there, that no non-test code in the
// module uses: a capability only its own tests reach is deleted, or
// moved into its package's export_test.go when the package's tests of
// other behaviour need it. The facade is held to the same rule for its
// exported functions, types and their exported methods (Options fields
// are out of scope): an export only the root package's tests call goes,
// and those tests read Stats or the unexported fields instead. It
// type-checks every non-test package of the module (bench/, cmd/,
// examples/ and the root count as callers). A
// method counts as used when it is selected anywhere, or when it puts
// its type (or a pointer to it) in an interface declared in the module,
// in a standard library package the module's packages load, or the
// universe's error.
func TestEveryExportHasACaller(t *testing.T) {
	root, module := moduleRoot(t)
	l := &exportLoader{
		root:      root,
		module:    module,
		fset:      token.NewFileSet(),
		pkgs:      map[string]*types.Package{},
		receivers: map[*ast.Ident]bool{},
		info: &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := module
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		_, err = l.load(importPath)
		if errors.Is(err, errNoGoFiles) {
			return nil
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	used := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		if !l.receivers[id] {
			used[origin(obj)] = true
		}
	}
	for _, sel := range l.info.Selections {
		used[origin(sel.Obj())] = true
	}

	// Interfaces a method can satisfy, by method name.
	ifaces := map[string][]*types.Interface{}
	addIfaces := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	addIfaces(types.Universe)
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		addIfaces(p.Scope())
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p)
	}
	satisfies := func(n *types.Named, m *types.Func) bool {
		if n.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces[m.Name()] {
			if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
				return true
			}
		}
		return false
	}

	var unused []string
	internal := module + "/internal/"
	for path, p := range l.pkgs {
		dir, ok := strings.CutPrefix(path, internal)
		facade := path == module
		if facade {
			dir = module
		} else if !ok {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			_, fn := obj.(*types.Func)
			tn, typ := obj.(*types.TypeName)
			checked := obj.Exported() || fn && name != "init" && name != "main"
			if facade {
				checked = obj.Exported() && (fn || typ)
			}
			if checked && !used[obj] {
				unused = append(unused, dir+"."+name)
			}
			if !typ || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				// An unexported type's exported method is there for an
				// interface the checker cannot see: a type parameter's
				// constraint, or errors.Is.
				checked := tn.Exported() || !m.Exported()
				if facade {
					checked = tn.Exported() && m.Exported()
				}
				if checked && !used[m] && !satisfies(n, m) {
					unused = append(unused, dir+"."+name+"."+m.Name())
				}
			}
		}
	}
	slices.Sort(unused)
	for _, name := range unused {
		if _, ok := exportAllowlist[name]; !ok {
			t.Errorf("%s: no non-test code uses it (delete it, or move it into the package's export_test.go)", name)
		}
	}
	for name := range exportAllowlist {
		if !slices.Contains(unused, name) {
			t.Errorf("%s: allowlisted, but non-test code uses it or it is gone (drop the entry)", name)
		}
	}
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

var errNoGoFiles = errors.New("no buildable non-test Go files")

// exportLoader type-checks the module's non-test packages from source,
// recording every use into one types.Info. The standard library comes
// from the source importer.
type exportLoader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*types.Package
	info         *types.Info
	// receivers marks the type names in methods' receivers: a type
	// whose only mention is its own methods' receivers is not used.
	receivers map[*ast.Ident]bool
}

// Import implements types.Importer.
func (l *exportLoader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		return l.load(path)
	}
	return l.std.Import(path)
}

// load type-checks the module package at path once.
func (l *exportLoader) load(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, errNoGoFiles
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						l.receivers[id] = true
					}
					return true
				})
			}
		}
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}
