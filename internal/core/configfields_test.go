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
	"strings"
	"testing"
)

// TestEveryConfigFieldIsSet fails on a field of the layer configs or of
// the facade's options that no non-test code in the module sets: a knob
// nothing can turn is either dead code or a constant. The type checker
// resolves each setting to the very field it names, so the facade's
// forward fc.X = o.X sets farm.Config's field, not Options'. A field
// counts as set where non-test code names it as a key of a composite
// literal (DefaultConfig's included), as the operand of & (potemkind
// sets Options.EpochLog through &opts.EpochLog), or as the target of an
// assignment or an increment that is not rooted at a parameter or
// receiver: a function filling in defaults on the config it was handed
// (withDefaults, ingest.Listen's zero-value fill) does not turn the knob.
func TestEveryConfigFieldIsSet(t *testing.T) {
	l := loadModule(t)
	params := map[types.Object]bool{}
	for _, f := range l.files {
		ast.Inspect(f, func(n ast.Node) bool {
			var fl *ast.FieldList
			switch n := n.(type) {
			case *ast.FuncDecl:
				fl = n.Recv
			case *ast.FuncType:
				fl = n.Params
			}
			if fl != nil {
				for _, field := range fl.List {
					for _, name := range field.Names {
						params[l.info.Defs[name]] = true
					}
				}
			}
			return true
		})
	}
	set := map[*types.Var]bool{}
	field := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := l.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				set[s.Obj().(*types.Var).Origin()] = true
			}
		}
	}
	target := func(e ast.Expr) {
		for root := e; ; {
			switch r := root.(type) {
			case *ast.ParenExpr:
				root = r.X
			case *ast.SelectorExpr:
				root = r.X
			case *ast.IndexExpr:
				root = r.X
			case *ast.StarExpr:
				root = r.X
			case *ast.Ident:
				if params[l.info.Uses[r]] {
					return
				}
				field(e)
				return
			default:
				field(e)
				return
			}
		}
	}
	for _, f := range l.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok {
					if v, ok := l.info.Uses[key].(*types.Var); ok && v.IsField() {
						set[v.Origin()] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					field(n.X)
				}
			}
			return true
		})
	}

	configs := []struct{ pkg, typ string }{
		{"", "Options"},
		{"", "WireOptions"},
		{"", "Hooks"},
		{"internal/core", "ShardEngineConfig"},
		{"internal/gateway", "Config"},
		{"internal/farm", "Config"},
		{"internal/vmm", "HostConfig"},
		{"internal/fault", "Config"},
		{"internal/ingest", "Config"},
		{"internal/ingest", "ReplayOptions"},
		{"internal/cluster", "Config"},
		{"internal/cluster", "WorkerConfig"},
		{"internal/telescope", "GenConfig"},
	}
	var unset []string
	for _, c := range configs {
		path, name := l.module, "potemkin"
		if c.pkg != "" {
			path, name = path+"/"+c.pkg, filepath.Base(c.pkg)
		}
		var st *types.Struct
		if p := l.pkgs[path]; p != nil {
			if tn, ok := p.Scope().Lookup(c.typ).(*types.TypeName); ok {
				st, _ = tn.Type().Underlying().(*types.Struct)
			}
		}
		if st == nil {
			t.Fatalf("no struct %s declared in %s", c.typ, path)
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); !set[f] {
				unset = append(unset, name+"."+c.typ+"."+f.Name())
			}
		}
	}
	for _, name := range unset {
		if _, ok := configAllowlist[name]; !ok {
			t.Errorf("%s: nothing outside tests sets it (delete it, or make it a constant)", name)
		}
	}
	for name := range configAllowlist {
		if !slices.Contains(unset, name) {
			t.Errorf("%s: allowlisted, but non-test code sets it or it is gone (drop the entry)", name)
		}
	}
}

// configAllowlist names the config fields that no non-test code sets and
// that stay anyway, each with its reason. Keys are "pkg.Type.Field", pkg
// being the package name (potemkin for the root package).
var configAllowlist = map[string]string{
	"potemkin.Options.ServerMemory": "bench/seams.go's layerConfigs reads it; it goes with ROADMAP item 1(c)",
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

// exportAllowlist names the exports in internal/ and the root package
// that no non-test code uses and that stay anyway, each with the test in
// another package or the ROADMAP item that needs it. Keys are
// "pkg.Name" for a top-level identifier and "pkg.Type.Method" for a
// method, pkg being the directory under internal/, or potemkin for the
// root package.
var exportAllowlist = map[string]string{
	"core.ShardEngine.FaultLog":        "the cross-mode harness (cluster's runModes) records the engine's fault log as an artifact",
	"core.ShardEngine.InjectBarrier":   "the cross-mode harness (cluster's runModes) seeds its engine runs' exploits with it, as Coordinator.Inject seeds a cluster's",
	"core.ShardEngine.RecycleAll":      "the root TestRegistryEqualsStatsAtRest recycles every binding through it",
	"core.ShardEngine.SetAdaptive":     "the cross-mode harness (cluster's runModes) sets a spec's epoch cap with it, and the root TestWireParallelAdaptiveSnapback and TestValidateParallelConstraints",
	"free.List.Len":                    "called through free.Trimmer, which this check does not match to a generic type's methods: farm's TestPoolsGiveBackAfterBurst reads each pool's parked items through it",
	"free.Pool.Most":                   "called through free.Trimmer (as free.List.Len): farm's TestPoolsGiveBackAfterBurst reads each pool's largest period through it; ROADMAP item 22(a′) publishes it",
	"free.Pool.Trim":                   "called through free.Trimmer (as free.List.Len): the gateway's scrub trims every pool through it (gateway.trim)",
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
// exported functions, types and their exported methods (the fields of
// Options and its companions are TestEveryConfigFieldIsSet's): an export
// only the root package's tests call goes, and those tests read Stats or
// the unexported fields instead. bench/, cmd/, examples/ and the root
// count as callers. A
// method counts as used when it is selected anywhere, or when it puts
// its type (or a pointer to it) in an interface declared in the module,
// in a standard library package the module's packages load, or the
// universe's error.
func TestEveryExportHasACaller(t *testing.T) {
	l := loadModule(t)
	module := l.module
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

// loadModule type-checks every non-test package of the module from
// source.
func loadModule(t *testing.T) *exportLoader {
	t.Helper()
	root, module := moduleRoot(t)
	l := &exportLoader{
		root:      root,
		module:    module,
		fset:      token.NewFileSet(),
		pkgs:      map[string]*types.Package{},
		receivers: map[*ast.Ident]bool{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
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
	return l
}

// exportLoader type-checks the module's non-test packages from source,
// keeping their files and recording every use into one types.Info. The
// standard library comes from the source importer.
type exportLoader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*types.Package
	files        []*ast.File
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
	l.files = append(l.files, files...)
	return p, nil
}
