package overbook

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDesignRules holds the repository to the rules its design rests on
// (DESIGN.md and docs/design/, which name each rule by its subtest). Every
// rule reads one type-check of the shipped code, so a rule is about
// objects, types and calls, not about how the source happens to be spelled:
// a book field is refused for its type whatever its name, a side door for
// the object it reaches whatever the receiver expression. Only the names a
// rule keeps deleted are matched as names, in identifiers, comments and
// string literals alike.
func TestDesignRules(t *testing.T) {
	c, err := loadDesignCode(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range designRules {
		t.Run(r.name, func(t *testing.T) { r.check(t, c) })
	}
}

var designRules = []struct {
	name  string
	check func(*testing.T, *designCode)
}{
	{"Books stay integers", ruleBooksStayIntegers},
	{"One record codec", ruleOneRecordCodec},
	{"One benchmark system", ruleOneBenchmarkSystem},
	{"One door", ruleOneDoor},
	{"One applier", ruleOneApplier},
	{"One epoch pass", ruleOneEpochPass},
	{"Bind once", ruleBindOnce},
	{"Grants are views", ruleGrantsAreViews},
	{"One REST surface", ruleOneRESTSurface},
	{"One span path", ruleOneSpanPath},
	{"One writer per tier", ruleOneWriterPerTier},
	{"Substrates keep what is read", ruleSubstratesKeepWhatIsRead},
	{"One telemetry batch per epoch", ruleOneTelemetryBatch},
	{"Margins in one batch", ruleMarginsInOneBatch},
	{"Scenarios are data", ruleScenariosAreData},
	{"WAL rotates, never rewrites", ruleWALRotates},
	{"One door to the disk", ruleOneDoorToTheDisk},
	{"Options have shipped callers", ruleOptionsHaveShippedSetters},
	{"Functions have callers", ruleFunctionsHaveCallers},
}

// designCode is the module's shipped code — every non-test Go file,
// examples/ and bench/ included — type-checked once, plus its test files,
// parsed only.
type designCode struct {
	fset  *token.FileSet
	files map[string][]*ast.File // shipped files by import path
	tests map[string][]*ast.File // _test.go files by directory import path
	info  *types.Info
	pkgs  map[string]*types.Package // module and standard library
	decls map[*types.Func]*ast.FuncDecl
}

func loadDesignCode(root string) (*designCode, error) {
	fset := token.NewFileSet()
	files, tests, err := parseModule(fset, root)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	std, err := stdImporter(fset, files)
	if err != nil {
		return nil, err
	}
	imp := &shippedImporter{fset: fset, files: files, info: info,
		pkgs: map[string]*types.Package{}, std: std}
	for _, p := range sortedKeys(files) {
		if _, err := imp.Import(p); err != nil {
			return nil, err
		}
	}
	c := &designCode{fset: fset, files: files, tests: tests, info: info, pkgs: imp.pkgs,
		decls: map[*types.Func]*ast.FuncDecl{}}
	for _, pf := range files {
		for _, f := range pf {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					c.decls[info.Defs[fd.Name].(*types.Func)] = fd
				}
			}
		}
	}
	return c, nil
}

// stdImporter imports the standard library from export data that one
// `go list -export` run locates for every package the files import, rather
// than one go list per package.
func stdImporter(fset *token.FileSet, files map[string][]*ast.File) (types.Importer, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	seen := map[string]bool{}
	for _, pf := range files {
		for _, f := range pf {
			for _, spec := range f.Imports {
				p, _ := strconv.Unquote(spec.Path.Value)
				if !seen[p] && !strings.HasPrefix(p, "repro") {
					seen[p] = true
					args = append(args, p)
				}
			}
		}
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if p, file, ok := strings.Cut(line, "="); ok {
			exports[p] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		if exports[p] == "" {
			return nil, fmt.Errorf("no export data for %s", p)
		}
		return os.Open(exports[p])
	}), nil
}

// parseModule parses every Go file of the module outside testdata/, with
// comments: the shipped files and the test files apart, keyed by import
// path.
func parseModule(fset *token.FileSet, root string) (files, tests map[string][]*ast.File, err error) {
	files, tests = map[string][]*ast.File{}, map[string][]*ast.File{}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imp := "repro"
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			imp += "/" + dir
		}
		if strings.HasSuffix(name, "_test.go") {
			tests[imp] = append(tests[imp], f)
		} else {
			files[imp] = append(files[imp], f)
		}
		return nil
	})
	return files, tests, err
}

// shippedImporter type-checks the module's packages from the parsed files
// and imports the standard library from export data.
type shippedImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	pkgs  map[string]*types.Package
	std   types.Importer
}

func (im *shippedImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := im.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := im.files[p]
	if !ok {
		pkg, err := im.std.Import(p)
		im.pkgs[p] = pkg
		return pkg, err
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(p, im.fset, files, im.info)
	im.pkgs[p] = pkg
	return pkg, err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// name is the slash path of the file holding pos, relative to the module.
func (c *designCode) name(pos token.Pos) string {
	return filepath.ToSlash(filepath.Clean(c.fset.Position(pos).Filename))
}

// at renders pos as file:line.
func (c *designCode) at(pos token.Pos) string {
	p := c.fset.Position(pos)
	return filepath.ToSlash(filepath.Clean(p.Filename)) + ":" + strconv.Itoa(p.Line)
}

// shipped returns the shipped files of the packages whose import paths
// match re.
func (c *designCode) shipped(re string) []*ast.File {
	return c.pick(c.files, re)
}

// source returns the shipped and test files of the packages whose import
// paths match re.
func (c *designCode) source(re string) []*ast.File {
	return append(c.pick(c.files, re), c.pick(c.tests, re)...)
}

func (c *designCode) pick(m map[string][]*ast.File, re string) []*ast.File {
	match := regexp.MustCompile(re)
	var out []*ast.File
	for _, p := range sortedKeys(m) {
		if match.MatchString(p) {
			out = append(out, m[p]...)
		}
	}
	return out
}

// in keeps the files whose module path is one of names.
func (c *designCode) in(files []*ast.File, names ...string) []*ast.File {
	var out []*ast.File
	for _, f := range files {
		for _, n := range names {
			if c.name(f.Pos()) == n {
				out = append(out, f)
			}
		}
	}
	return out
}

// except drops the files whose module path is one of names.
func (c *designCode) except(files []*ast.File, names ...string) []*ast.File {
	var out []*ast.File
next:
	for _, f := range files {
		for _, n := range names {
			if c.name(f.Pos()) == n {
				continue next
			}
		}
		out = append(out, f)
	}
	return out
}

// lookup returns the package-level object pkg.name, or, given a member, the
// field or method of that name on the named type pkg.name.
func (c *designCode) lookup(t *testing.T, pkg, name string, member ...string) types.Object {
	t.Helper()
	p := c.pkgs[pkg]
	if p == nil {
		t.Fatalf("package %s not loaded", pkg)
	}
	obj := p.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("%s.%s not declared", pkg, name)
	}
	for _, m := range member {
		typ := obj.Type()
		if !types.IsInterface(typ) {
			typ = types.NewPointer(typ) // a pointer's method set holds every method
		}
		o, _, _ := types.LookupFieldOrMethod(typ, true, p, m)
		if o == nil {
			t.Fatalf("%s.%s has no member %s", pkg, name, m)
		}
		obj = o
	}
	return obj
}

// eachUse calls fn for every identifier in files that refers to an object,
// with the function declaration it sits in (nil at package level).
func (c *designCode) eachUse(files []*ast.File, fn func(fd *ast.FuncDecl, id *ast.Ident, obj types.Object)) {
	for _, f := range files {
		for _, d := range f.Decls {
			fd, _ := d.(*ast.FuncDecl)
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := c.info.Uses[id]; obj != nil {
						fn(fd, id, origin(obj))
					}
				}
				return true
			})
		}
	}
}

// origin maps an instantiated function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// named reports whether typ, under any pointers, is the named type pkg.name.
func named(typ types.Type, pkg, name string) bool {
	for {
		p, ok := typ.(*types.Pointer)
		if !ok {
			break
		}
		typ = p.Elem()
	}
	n, ok := types.Unalias(typ).(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkg && n.Obj().Name() == name
}

// isObj reports whether obj is the package-level object pkg.name.
func isObj(obj types.Object, pkg, name string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkg && obj.Name() == name &&
		obj.Parent() == obj.Pkg().Scope()
}

// forbidNames fails on every identifier, comment and string literal in
// files that re matches: the rule for names that stay deleted.
func forbidNames(t *testing.T, c *designCode, files []*ast.File, re string) {
	t.Helper()
	match := regexp.MustCompile(re)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if s := match.FindString(cm.Text); s != "" {
					t.Errorf("%s: comment names %q", c.at(cm.Pos()), s)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if s := match.FindString(n.Name); s != "" {
					t.Errorf("%s: identifier %s names %q", c.at(n.Pos()), n.Name, s)
				}
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					if s := match.FindString(n.Value); s != "" {
						t.Errorf("%s: string literal names %q", c.at(n.Pos()), s)
					}
				}
			}
			return true
		})
	}
}

// Books stay integers: the capacity ledger, the per-shard totals and the
// federation books are int64 in slice.Kbps / slice.MicroEUR (DESIGN.md
// §7.3): exact, order-free, audited with ==. No number in a book struct is
// a float, whatever its field is called, and no field in the files that
// declare the books that is named like a book is one either.
func ruleBooksStayIntegers(t *testing.T, c *designCode) {
	for _, b := range [][2]string{
		{"repro/internal/core", "counters"},
		{"repro/internal/core", "counterState"},
		{"repro/internal/core", "capacityLedger"},
		{"repro/internal/federation", "books"},
	} {
		obj := c.lookup(t, b[0], b[1])
		st := obj.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); hasFloat(f.Type(), map[types.Type]bool{}) {
				t.Errorf("%s.%s: field %s is %s; a book holds integers", path.Base(b[0]), b[1], f.Name(), f.Type())
			}
		}
	}
	bookName := regexp.MustCompile(`^(load|revenue|penalty|contracted|allocated|advertised|headroom|reserved|ledger)`)
	files := c.in(c.shipped(`^repro/internal/(core|federation)$`),
		"internal/core/shard.go", "internal/core/gain.go", "internal/federation/federation.go")
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					if bookName.MatchString(id.Name) && hasFloat(c.info.Defs[id].Type(), map[types.Type]bool{}) {
						t.Errorf("%s: book field %s is %s", c.at(id.Pos()), id.Name, c.info.Defs[id].Type())
					}
				}
			}
			return true
		})
	}
}

// hasFloat reports whether a value of typ holds a floating-point or complex
// number anywhere in it.
func hasFloat(typ types.Type, seen map[types.Type]bool) bool {
	if seen[typ] {
		return false
	}
	seen[typ] = true
	switch u := typ.Underlying().(type) {
	case *types.Basic:
		return u.Info()&(types.IsFloat|types.IsComplex) != 0
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if hasFloat(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return hasFloat(u.Elem(), seen)
	case *types.Slice:
		return hasFloat(u.Elem(), seen)
	case *types.Pointer:
		return hasFloat(u.Elem(), seen)
	case *types.Map:
		return hasFloat(u.Key(), seen) || hasFloat(u.Elem(), seen)
	}
	return false
}

// One record codec: log payloads and the checkpoint blob have one reader
// and one writer, the walkers in internal/core/records.go over wal.Codec
// (DESIGN.md §9.1). encoding/json survives in core's shipped code only
// where it renders a view nothing reads back — StateDigest and RecordJSON —
// so any other call into it is a second payload path creeping in.
func ruleOneRecordCodec(t *testing.T, c *designCode) {
	c.eachUse(c.shipped(`^repro/internal/core$`), func(fd *ast.FuncDecl, id *ast.Ident, obj types.Object) {
		if _, ok := obj.(*types.Func); !ok || obj.Pkg() == nil || obj.Pkg().Path() != "encoding/json" {
			return
		}
		if fd != nil && (fd.Name.Name == "StateDigest" || fd.Name.Name == "RecordJSON") {
			return
		}
		t.Errorf("%s: encoding/json.%s outside StateDigest and RecordJSON", c.at(id.Pos()), obj.Name())
	})
}

// One benchmark system: performance is stated and gated by bench/ +
// BENCHMARK.json and nothing else (DESIGN.md §4). The per-PR BENCH_<n>.json
// snapshots and the cmd/ tool that wrote them stay deleted; a root
// micro-benchmark stays only while no bench/ workload exercises the same
// path, and its "Kept:" doc line names what retires it.
func ruleOneBenchmarkSystem(t *testing.T, c *designCode) {
	if m, _ := filepath.Glob("BENCH_*.json"); len(m) > 0 {
		t.Errorf("performance snapshots are back: %v", m)
	}
	if _, err := os.Stat("cmd/benchjson"); err == nil {
		t.Error("cmd/benchjson is back")
	}
	kept := map[string]bool{"BenchmarkParallelAdmissionReject": true, "BenchmarkListPage": true,
		"BenchmarkWatchFanout": true, "BenchmarkDurableAdmission": true,
		"BenchmarkFederatedAdmission": true, "BenchmarkTemplateInstantiation": true}
	for _, f := range c.tests["repro"] {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Benchmark") {
				continue
			}
			if !kept[fd.Name.Name] {
				t.Errorf("%s: %s is a seventh root benchmark; measure it in bench/", c.at(fd.Pos()), fd.Name.Name)
			}
			if !hasKeptLine(fd.Doc) {
				t.Errorf("%s: %s has no \"// Kept:\" doc line naming what retires it", c.at(fd.Pos()), fd.Name.Name)
			}
		}
	}
}

// hasKeptLine reports whether a doc comment has a line that starts
// "Kept:".
func hasKeptLine(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		if strings.HasPrefix(line, "Kept:") {
			return true
		}
	}
	return false
}

// One door: core keeps no copy of a substrate's state and reaches a
// substrate only through its controller, by handle (DESIGN.md §10).
// Touching the testbed's RAN network or reserving on its transport network
// from core, through whatever variable, fails, and the two version-keyed
// admission caches and recovery's Import*/Restore* side doors stay deleted.
func ruleOneDoor(t *testing.T, c *designCode) {
	files := c.shipped(`^repro/internal/core$`)
	ranField := c.lookup(t, "repro/internal/testbed", "Testbed", "RAN")
	reserve := c.lookup(t, "repro/internal/transport", "Network", "Reserve")
	c.eachUse(files, func(_ *ast.FuncDecl, id *ast.Ident, obj types.Object) {
		switch obj {
		case ranField:
			t.Errorf("%s: core reads testbed.Testbed.RAN; go through the RAN controller", c.at(id.Pos()))
		case reserve:
			t.Errorf("%s: core reserves on transport.Network; go through the transport controller", c.at(id.Pos()))
		}
	})
	forbidNames(t, c, files, `Import(Slice|Paths)|RestoreDeployment|radioHead|feasMemo`)
}

// One applier: the books and the registry are written only by a record's
// applier (internal/core/apply.go); the live path and replay differ only in
// how the outcome is bound to the shared pools. No other file of core
// calls a book or registry mutator, through whatever receiver.
func ruleOneApplier(t *testing.T, c *designCode) {
	const core = "repro/internal/core"
	mutators := map[types.Object]string{}
	for _, m := range []string{"admit", "reject", "release", "reallocate", "charge"} {
		mutators[c.lookup(t, core, "counters", m)] = "counters." + m
	}
	mutators[c.lookup(t, core, "shard", "insert")] = "shard.insert"
	mutators[c.lookup(t, core, "capacityLedger", "Update")] = "capacityLedger.Update"
	mutators[c.lookup(t, core, "finishedHistory", "Push")] = "finishedHistory.Push"
	tallies := map[types.Object]bool{
		c.lookup(t, core, "counters", "reconfigurations"): true,
		c.lookup(t, core, "counters", "active"):           true,
	}
	files := c.except(c.shipped(`^repro/internal/core$`), "internal/core/apply.go")
	c.eachUse(files, func(_ *ast.FuncDecl, id *ast.Ident, obj types.Object) {
		if m, ok := mutators[obj]; ok {
			t.Errorf("%s: %s outside apply.go", c.at(id.Pos()), m)
		}
	})
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" {
				if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && tallies[c.info.Uses[inner.Sel]] {
					t.Errorf("%s: %s.Add outside apply.go", c.at(sel.Pos()), inner.Sel.Name)
				}
			}
			return true
		})
	}
}

// One epoch pass: the control epoch runs on its caller's goroutine, every
// phase in submission order (DESIGN.md §7.1); shard parallelism serves
// admission, not the epoch. Neither epoch.go nor any function RunEpoch
// reaches by a static call starts a goroutine or waits on a WaitGroup.
func ruleOneEpochPass(t *testing.T, c *designCode) {
	check := func(fd *ast.FuncDecl, why string) {
		ast.Inspect(fd, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: %s starts a goroutine (%s)", c.at(n.Pos()), fd.Name.Name, why)
			case *ast.Ident:
				if obj := c.info.Uses[n]; obj != nil && (isObj(obj, "sync", "WaitGroup") ||
					obj.Pkg() != nil && obj.Pkg().Path() == "sync" && isMethodOf(obj, "WaitGroup")) {
					t.Errorf("%s: %s uses sync.WaitGroup (%s)", c.at(n.Pos()), fd.Name.Name, why)
				}
			}
			return true
		})
	}
	for _, f := range c.in(c.shipped(`^repro/internal/core$`), "internal/core/epoch.go") {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				check(fd, "in epoch.go")
			}
		}
	}
	root := c.lookup(t, "repro/internal/core", "Orchestrator", "RunEpoch").(*types.Func)
	seen := map[*types.Func]bool{root: true}
	for queue := []*types.Func{root}; len(queue) > 0; queue = queue[1:] {
		fd := c.decls[queue[0]]
		if c.name(fd.Pos()) != "internal/core/epoch.go" {
			check(fd, "reached from RunEpoch")
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := origin(c.info.Uses[id]).(*types.Func); ok && c.decls[fn] != nil && !seen[fn] {
					seen[fn] = true
					queue = append(queue, fn)
				}
			}
			return true
		})
	}
}

// isMethodOf reports whether obj is a method of the named type recv.
func isMethodOf(obj types.Object, recv string) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Recv() != nil && named(sig.Recv().Type(), fn.Pkg().Path(), recv)
}

// Bind once: each slice carries its substrate handles in one ctrl.Binding
// that travels in ctrl.Tx (DESIGN.md §10, handle rules); the epoch
// schedules and resizes through it (§7.5). The RAN controller's PLMN-keyed
// handle index stays deleted, and no variable, field or parameter named
// plmns that is a []slice.PLMN — a PLMN list as the scheduler's input —
// comes back.
func ruleBindOnce(t *testing.T, c *designCode) {
	files := append(c.shipped(`^repro/internal/(ctrl|ran)$`),
		c.in(c.shipped(`^repro/internal/core$`), "internal/core/epoch.go")...)
	forbidNames(t, c, files, `byPLMN`)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "plmns" {
				if v, ok := c.info.Defs[id].(*types.Var); ok {
					if s, ok := v.Type().Underlying().(*types.Slice); ok && named(s.Elem(), "repro/internal/slice", "PLMN") {
						t.Errorf("%s: plmns %s is a PLMN list; pass the bindings", c.at(id.Pos()), v.Type())
					}
				}
			}
			return true
		})
	}
}

// Grants are views: each domain's grant is a view of the slice's
// ctrl.Binding (DESIGN.md §10, "Grants are views of the binding"): no grant
// is allocated, pooled, recycled or latched, so a Set.Wrap decoration runs
// exactly the shipped engine. ctrl's one sync.Pool-or-atomic.Bool is
// FaultArm's armed flag; the recycle and poisoning verbs stay deleted, and
// the engine has no recycle switch.
func ruleGrantsAreViews(t *testing.T, c *designCode) {
	files := c.shipped(`^repro/internal/ctrl$`)
	armed := c.lookup(t, "repro/internal/ctrl", "FaultArm", "armed")
	latch := func(typ types.Type) bool {
		return named(typ, "sync", "Pool") || named(typ, "sync/atomic", "Bool")
	}
	var armedDecl ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, id := range n.Names {
					if c.info.Defs[id] == armed {
						armedDecl = n
					}
				}
			case *ast.Ident:
				if v, ok := c.info.Defs[n].(*types.Var); ok && v != armed && containsType(v.Type(), latch) {
					t.Errorf("%s: %s is a %s; only FaultArm.armed may be", c.at(n.Pos()), n.Name, v.Type())
				}
			}
			return true
		})
	}
	c.eachUse(files, func(_ *ast.FuncDecl, id *ast.Ident, obj types.Object) {
		if tn, ok := obj.(*types.TypeName); ok && latch(tn.Type()) &&
			(armedDecl == nil || id.Pos() < armedDecl.Pos() || id.Pos() >= armedDecl.End()) {
			t.Errorf("%s: %s.%s outside FaultArm.armed", c.at(id.Pos()), tn.Pkg().Name(), tn.Name())
		}
	})
	forbidNames(t, c, files, `RecycleGrant|SetGrantPoisoning`)
	forbidNames(t, c, c.in(c.shipped(`^repro/internal/core$`), "internal/core/engine.go"), `recycle`)
}

// containsType reports whether typ, or any type it is spelled with —
// elements, keys, fields of an unnamed struct — is one that match accepts.
// A named type counts as itself: its own fields are checked where it is
// declared.
func containsType(typ types.Type, match func(types.Type) bool) bool {
	seen := map[types.Type]bool{}
	var walk func(types.Type) bool
	walk = func(typ types.Type) bool {
		if seen[typ] {
			return false
		}
		seen[typ] = true
		if match(typ) {
			return true
		}
		switch u := typ.(type) {
		case *types.Pointer:
			return walk(u.Elem())
		case *types.Slice:
			return walk(u.Elem())
		case *types.Array:
			return walk(u.Elem())
		case *types.Map:
			return walk(u.Key()) || walk(u.Elem())
		case *types.Chan:
			return walk(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if walk(u.Field(i).Type()) {
					return true
				}
			}
		}
		return false
	}
	return walk(typ)
}

// One REST surface: every single-cluster resource has one name, under
// /api/v2/ (DESIGN.md §6.3), and restapi.Client and slicectl speak only
// that. The one /api/v1 row left is GET /api/v1/gain, which the repository
// benchmark's poll_watch still reads (ROADMAP item 6(e) deletes it), plus
// the daemon's mux mount that routes it. Any other string constant that
// holds "/api/v1/" in restapi or cmd/, however it is spelled or assembled,
// is a v1 duplicate coming back.
func ruleOneRESTSurface(t *testing.T, c *designCode) {
	handleGain := c.lookup(t, "repro/internal/restapi", "Server", "handleGain")
	muxHandle := c.lookup(t, "net/http", "ServeMux", "Handle")
	files := c.shipped(`^repro/(internal/restapi|cmd/.*)$`)
	for _, f := range files {
		file := c.name(f.Pos())
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			e, ok := n.(ast.Expr)
			if tv := c.info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String &&
				strings.Contains(constant.StringVal(tv.Value), "/api/v1/") {
				if !v1Exempt(c, file, constant.StringVal(tv.Value), stack, handleGain, muxHandle) {
					t.Errorf("%s: %s names an /api/v1/ path", c.at(e.Pos()), constant.StringVal(tv.Value))
				}
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if strings.Contains(cm.Text, `"/api/v1/`) {
					t.Errorf("%s: comment quotes an /api/v1/ path", c.at(cm.Pos()))
				}
			}
		}
	}
}

// v1Exempt reports whether the constant under stack is one of the two
// /api/v1/ names kept: the gain row of the route table in server.go, or the
// daemon's mux mount.
func v1Exempt(c *designCode, file, path string, stack []ast.Node, handleGain, muxHandle types.Object) bool {
	parent := stack[len(stack)-1]
	switch {
	case file == "internal/restapi/server.go" && path == "/api/v1/gain":
		row, ok := parent.(*ast.CompositeLit)
		if !ok {
			return false
		}
		for _, elt := range row.Elts {
			if sel, ok := elt.(*ast.SelectorExpr); ok && c.info.Uses[sel.Sel] == handleGain {
				return true
			}
		}
	case file == "cmd/orchestrator/main.go" && path == "/api/v1/":
		call, ok := parent.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && c.info.Uses[sel.Sel] == muxHandle
	}
	return false
}

// One span path: a federated span leg is one Submit to the member's
// orchestrator and one Delete to tear it down (DESIGN.md §11); the span
// record's legs are the only span state. The cluster-as-Domain adapter, the
// span transaction and the span/leg side maps stay deleted, in tests too.
func ruleOneSpanPath(t *testing.T, c *designCode) {
	forbidNames(t, c, c.except(c.source(`^repro(/internal/.*|/cmd/.*)?$`), "design_rules_test.go"),
		`ClusterDomain|ClusterBackend|ClusterGrant|ClusterLeg|InstallSpan|SpanTx|pendingFrac|legBySpan`)
}

// One writer per tier: the federation and intent tiers are written only by
// their apply (internal/federation/apply.go, internal/intent/apply.go;
// DESIGN.md §11, §13). A write to the books, spans, orphans, flags or
// counters, or to the fleets, rollouts or published templates, anywhere
// else fails — an assignment, an operator-assignment, ++/-- or delete,
// however the receiver is reached.
func ruleOneWriterPerTier(t *testing.T, c *designCode) {
	const fed, intent = "repro/internal/federation", "repro/internal/intent"
	fedCounters := map[types.Object]bool{}
	for _, n := range []string{"members", "barriers", "admitted", "rejected", "crossCluster", "spanSeq", "rejectReasons"} {
		fedCounters[c.lookup(t, fed, "Federation", n)] = true
	}
	fedFields := map[string]bool{"headroom": true, "reserved": true, "advertised": true, "ledger": true,
		"epoch": true, "reading": true, "partitioned": true, "failed": true}
	fedMaps := map[string]bool{"spans": true, "orphans": true, "byName": true}
	fedFiles := c.except(c.shipped(`^`+fed+`$`), "internal/federation/apply.go")
	eachWrite(c, fedFiles, func(target ast.Expr, obj types.Object, indexed, deleted bool, rhs []ast.Expr) {
		_, isField := target.(*ast.SelectorExpr)
		switch {
		case fedCounters[obj]:
		case isField && fedFields[obj.Name()]:
		case fedMaps[obj.Name()] && (indexed || deleted || isField):
		case deleted && isField && isFieldOf(obj, fed, "Federation"):
		default:
			return
		}
		t.Errorf("%s: %s written outside federation/apply.go", c.at(target.Pos()), obj.Name())
	})

	published := c.lookup(t, intent, "TemplatePublished")
	toVersion := c.lookup(t, intent, "Rollout", "ToVersion")
	intentFiles := c.except(c.shipped(`^`+intent+`$`), "internal/intent/apply.go")
	eachWrite(c, intentFiles, func(target ast.Expr, obj types.Object, indexed, deleted bool, rhs []ast.Expr) {
		_, isField := target.(*ast.SelectorExpr)
		switch {
		case isField && (obj.Name() == "fleets" || obj.Name() == "rollouts"):
		case isField && (obj.Name() == "Phase" || obj.Name() == "Violations" || obj.Name() == "DecidedAt" ||
			obj.Name() == "Reason"):
		case isField && obj.Name() == "PublishedAt" && !zeroTime(c, rhs):
		case isField && obj.Name() == "Version" && refersTo(c, rhs, toVersion):
		case isField && obj.Name() == "State" && refersTo(c, rhs, published):
		default:
			return
		}
		t.Errorf("%s: %s written outside intent/apply.go", c.at(target.Pos()), obj.Name())
	})
}

// zeroTime reports whether rhs is the one expression time.Time{}: a draft's
// publication stamp is cleared outside apply, never set.
func zeroTime(c *designCode, rhs []ast.Expr) bool {
	if len(rhs) != 1 {
		return false
	}
	lit, ok := ast.Unparen(rhs[0]).(*ast.CompositeLit)
	return ok && len(lit.Elts) == 0 && named(c.info.Types[lit].Type, "time", "Time")
}

// eachWrite calls fn for every location written in files: the target of an
// assignment (not a definition), an operator-assignment, ++/--, or the map
// of a delete. obj is what the target names once index expressions, parens
// and dereferences are peeled; indexed says an index was peeled; rhs is
// what is assigned, when there is one.
func eachWrite(c *designCode, files []*ast.File, fn func(target ast.Expr, obj types.Object, indexed, deleted bool, rhs []ast.Expr)) {
	visit := func(lhs ast.Expr, deleted bool, rhs []ast.Expr) {
		indexed := false
		for {
			switch e := lhs.(type) {
			case *ast.ParenExpr:
				lhs = e.X
				continue
			case *ast.StarExpr:
				lhs = e.X
				continue
			case *ast.IndexExpr:
				lhs, indexed = e.X, true
				continue
			}
			break
		}
		var id *ast.Ident
		switch e := lhs.(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		default:
			return
		}
		if obj := c.info.Uses[id]; obj != nil {
			fn(lhs, origin(obj), indexed, deleted, rhs)
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						visit(lhs, false, n.Rhs)
					}
				}
			case *ast.IncDecStmt:
				visit(n.X, false, nil)
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
					if b, ok := c.info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
						visit(n.Args[0], true, nil)
					}
				}
			}
			return true
		})
	}
}

// isFieldOf reports whether obj is a field of the struct pkg.name.
func isFieldOf(obj types.Object, pkg, name string) bool {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil || v.Pkg().Path() != pkg {
		return false
	}
	tn, ok := v.Pkg().Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == v {
			return true
		}
	}
	return false
}

// refersTo reports whether any of exprs mentions obj.
func refersTo(c *designCode, exprs []ast.Expr, obj types.Object) bool {
	found := false
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && origin(c.info.Uses[id]) == obj {
				found = true
			}
			return !found
		})
	}
	return found
}

// Substrates keep what is read: the substrates model the control surface
// the orchestrator reads (DESIGN.md §5, §10): one first-fit placement that
// CanFit and CreateStack share, no switch flow tables, and controllers that
// take the topology's cell, port and DC lists once in their constructors. A
// placement policy, a flow table or a version-keyed topology cache stays
// deleted, and the RAN and cloud substrates use no atomic counter.
func ruleSubstratesKeepWhatIsRead(t *testing.T, c *designCode) {
	forbidNames(t, c, c.shipped(`^repro/(internal|cmd)/`),
		`FlowTable|flowTable|installFlows|PlacementPolicy|BestFit|WorstFit|hostOrder|TopoVersion|ranCellCache|nodeListCache|dcListCache`)
	c.eachUse(c.shipped(`^repro/internal/(ran|cloud)$`), func(_ *ast.FuncDecl, id *ast.Ident, obj types.Object) {
		if isObj(obj, "sync/atomic", "Uint64") {
			t.Errorf("%s: atomic.Uint64 in a substrate", c.at(id.Pos()))
		}
	})
}

// One telemetry batch per epoch: the control epoch collects each slice's
// telemetry row in P3c and writes every row in one monitor.AddEach before
// P4 (DESIGN.md §7.4): the rings share the store's slab, so that is one
// lock per epoch. Core appends to no ring or series one value at a time,
// and calls monitor.AddEach once, from epoch.go.
func ruleOneTelemetryBatch(t *testing.T, c *designCode) {
	var batches []string
	c.eachUse(c.shipped(`^repro/internal/core$`), func(_ *ast.FuncDecl, id *ast.Ident, obj types.Object) {
		if obj.Pkg() == nil || obj.Pkg().Path() != "repro/internal/monitor" {
			return
		}
		if isObj(obj, "repro/internal/monitor", "AddEach") {
			batches = append(batches, c.at(id.Pos()))
			if c.name(id.Pos()) != "internal/core/epoch.go" {
				t.Errorf("%s: monitor.AddEach outside epoch.go", c.at(id.Pos()))
			}
		} else if _, ok := obj.(*types.Func); ok && obj.Name() == "Add" {
			t.Errorf("%s: per-value telemetry append %s; batch it in the epoch's AddEach", c.at(id.Pos()), obj.Name())
		}
	})
	if len(batches) != 1 {
		t.Errorf("monitor.AddEach called %d times in core (%v), want once", len(batches), batches)
	}
}

// Margins in one batch: the epoch fills every live slice's provisioning
// target in one forecast.ProvisionEach, four residual windows at a time,
// holding no shard lock (DESIGN.md §7.1, phase P3b). A per-slice Provision
// call in the epoch, a second batch, or a σ computed outside
// internal/forecast fails.
func ruleMarginsInOneBatch(t *testing.T, c *designCode) {
	each := c.lookup(t, "repro/internal/forecast", "ProvisionEach")
	var batches []string
	c.eachUse(c.shipped(`^repro/internal/core$`), func(_ *ast.FuncDecl, id *ast.Ident, obj types.Object) {
		file := c.name(id.Pos())
		switch {
		case obj == each:
			batches = append(batches, c.at(id.Pos()))
			if file != "internal/core/epoch.go" {
				t.Errorf("%s: forecast.ProvisionEach outside epoch.go", c.at(id.Pos()))
			}
		case file == "internal/core/epoch.go" && obj.Name() == "Provision":
			if _, ok := obj.(*types.Func); ok {
				t.Errorf("%s: per-slice Provision in the epoch", c.at(id.Pos()))
			}
		}
	})
	if len(batches) != 1 {
		t.Errorf("forecast.ProvisionEach called %d times in core (%v), want once", len(batches), batches)
	}
	stdDev := regexp.MustCompile(`StdDev`)
	for _, p := range sortedKeys(c.files) {
		if p == "repro/internal/forecast" {
			continue
		}
		for _, f := range c.files[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && stdDev.MatchString(id.Name) {
					obj := c.info.Defs[id]
					if obj == nil {
						obj = c.info.Uses[id]
					}
					if _, ok := obj.(*types.Func); ok {
						t.Errorf("%s: %s computes a σ outside internal/forecast", c.at(id.Pos()), id.Name)
					}
				}
				return true
			})
			for _, cg := range f.Comments {
				for _, cm := range cg.List {
					if strings.Contains(cm.Text, "StdDev(") {
						t.Errorf("%s: comment calls StdDev( outside internal/forecast", c.at(cm.Pos()))
					}
				}
			}
		}
	}
}

// Scenarios are data: a chaos step is a chaos.Op value and chaos.Apply is
// the one switch that gives it an effect (DESIGN.md §8.3); C1-C9 are
// programs of ops run by scenario.Drive. internal/chaos declares no Action
// type and no value, field or result of a func type over *Env, and
// internal/scenario schedules no callback but the two arrival processes,
// the UE attach and D2's gain sampler.
func ruleScenariosAreData(t *testing.T, c *designCode) {
	env := c.lookup(t, "repro/internal/chaos", "Env").Type()
	stepFunc := func(typ types.Type) bool {
		sig, ok := typ.Underlying().(*types.Signature)
		if !ok {
			return false
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if types.Identical(sig.Params().At(i).Type(), types.NewPointer(env)) {
				return true
			}
		}
		return false
	}
	for _, f := range c.shipped(`^repro/internal/chaos$`) {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch obj := c.info.Defs[id].(type) {
			case *types.TypeName:
				if obj.Name() == "Action" || containsType(obj.Type().Underlying(), stepFunc) {
					t.Errorf("%s: type %s is a func-typed chaos step", c.at(id.Pos()), obj.Name())
				}
			case *types.Var:
				if containsType(obj.Type(), stepFunc) {
					t.Errorf("%s: %s is a func-typed chaos step (%s)", c.at(id.Pos()), obj.Name(), obj.Type())
				}
			case *types.Func:
				res := obj.Type().(*types.Signature).Results()
				for i := 0; i < res.Len(); i++ {
					if containsType(res.At(i).Type(), stepFunc) {
						t.Errorf("%s: %s returns a func-typed chaos step", c.at(id.Pos()), obj.Name())
					}
				}
			}
			return true
		})
	}

	every := c.lookup(t, "repro/internal/chaos", "Every")
	kept := func(call *ast.CallExpr) bool {
		if len(call.Args) < 2 {
			return false
		}
		name := ast.Unparen(call.Args[1])
		if tv := c.info.Types[name]; tv.Value != nil && tv.Value.Kind() == constant.String {
			s := constant.StringVal(tv.Value)
			return s == "arrival" || s == "sample"
		}
		if b, ok := name.(*ast.BinaryExpr); ok && b.Op == token.ADD {
			tv := c.info.Types[b.Y]
			return tv.Value != nil && tv.Value.Kind() == constant.String && constant.StringVal(tv.Value) == "/ue-attach"
		}
		return false
	}
	for _, f := range c.shipped(`^repro/internal/scenario$`) {
		calls := map[*ast.Ident]*ast.CallExpr{}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					calls[sel.Sel] = call
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := origin(c.info.Uses[id])
			if _, ok := obj.(*types.Func); !ok || obj == every {
				return true
			}
			if obj.Name() != "After" && obj.Name() != "At" && obj.Name() != "Every" {
				return true
			}
			if call := calls[id]; call == nil || !kept(call) {
				t.Errorf("%s: scenario schedules a callback with %s; make it a chaos.Op", c.at(id.Pos()), obj.Name())
			}
			return true
		})
	}
}

// WAL rotates, never rewrites: a checkpoint seals wal.log as a
// wal-<last>.log segment and starts an empty one (DESIGN.md §9.1): no log
// file is read back or rewritten while the daemon runs. Publishing wal.log
// through writeFileAtomic, or reading a file through the file-system seam
// or decoding a record stream anywhere in the package's shipped code but
// load (Load's body), is log compaction coming back.
func ruleWALRotates(t *testing.T, c *designCode) {
	const wal = "repro/internal/wal"
	atomicWrite := c.lookup(t, wal, "writeFileAtomic")
	logName := c.lookup(t, wal, "logName")
	decode := c.lookup(t, wal, "DecodeStream")
	readFile := c.lookup(t, wal, "fileSystem", "ReadFile")
	osReadFile := c.lookup(t, wal, "osFS", "ReadFile")
	files := c.shipped(`^` + wal + `$`)
	c.eachUse(files, func(fd *ast.FuncDecl, id *ast.Ident, obj types.Object) {
		if (obj == decode || obj == readFile || obj == osReadFile) && (fd == nil || fd.Recv != nil || fd.Name.Name != "load") {
			t.Errorf("%s: %s outside load", c.at(id.Pos()), obj.Name())
		}
	})
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && c.info.Uses[id] == atomicWrite &&
					refersTo(c, call.Args, logName) {
					t.Errorf("%s: wal.log rewritten through writeFileAtomic", c.at(call.Pos()))
				}
			}
			return true
		})
	}
}

// One door to the disk: internal/wal reaches the file system only through
// its fileSystem seam (DESIGN.md §9.1), whose one shipped implementation is
// osFS, so a test can log or fail every operation the log performs. Outside
// osFS's methods the package's shipped code uses no function of package os
// and no *os.File method, however it reaches them.
func ruleOneDoorToTheDisk(t *testing.T, c *designCode) {
	const wal = "repro/internal/wal"
	c.eachUse(c.shipped(`^`+wal+`$`), func(fd *ast.FuncDecl, id *ast.Ident, obj types.Object) {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
			return
		}
		if fd != nil && isMethodOf(c.info.Defs[fd.Name], "osFS") {
			return
		}
		t.Errorf("%s: %s outside osFS", c.at(id.Pos()), fn.FullName())
	})
}

// Options have shipped callers: the structs a caller fills to assemble a
// system or a tier (overbook.Options and FederationOptions, core.Config,
// testbed.Config, ran.Config, invariant.Options, intent.Config,
// federation.Config and ClusterConfig, scenario.Options) keep a field only
// while shipped code — every non-test file outside examples/ — sets it by a
// keyed literal or an assignment. A value no
// shipped caller varies is a constant, not another configuration for the
// tests to cover; scenario.FedOptions, folded into FedChaosScenario, stays
// deleted. The struct's own defaulting — its methods, a function of its
// package taking it, such as ran.NewENB, and a parameterless function
// returning it, such as testbed.Default — only fills zeros and is not a
// setter.
func ruleOptionsHaveShippedSetters(t *testing.T, c *designCode) {
	optionStructs := []struct {
		pkg, name string
		folded    bool
	}{
		{"repro", "Options", false},
		{"repro", "FederationOptions", false},
		{"repro/internal/core", "Config", false},
		{"repro/internal/testbed", "Config", false},
		{"repro/internal/ran", "Config", false},
		{"repro/internal/invariant", "Options", false},
		{"repro/internal/intent", "Config", false},
		{"repro/internal/federation", "Config", false},
		{"repro/internal/federation", "ClusterConfig", false},
		{"repro/internal/scenario", "Options", false},
		{"repro/internal/scenario", "FedOptions", true},
	}
	// target finds the option struct named by a type, if it is one.
	target := func(typ types.Type) *types.TypeName {
		for _, s := range optionStructs {
			if named(typ, s.pkg, s.name) {
				if p, ok := typ.(*types.Pointer); ok {
					typ = p.Elem()
				}
				return types.Unalias(typ).(*types.Named).Obj()
			}
		}
		return nil
	}
	set := map[*types.TypeName]map[string]bool{}
	mark := func(tn *types.TypeName, field string) {
		if set[tn] == nil {
			set[tn] = map[string]bool{}
		}
		set[tn][field] = true
	}
	for _, f := range c.shipped(`^repro(/internal/.*|/cmd/.*|/bench)?$`) {
		for _, decl := range f.Decls {
			defaults := defaultedBy(decl, c.info, target)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if tn := target(c.info.Types[n].Type); tn != nil && tn != defaults {
						for _, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								mark(tn, kv.Key.(*ast.Ident).Name)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markSelector(lhs, c.info, target, defaults, mark)
					}
				case *ast.IncDecStmt:
					markSelector(n.X, c.info, target, defaults, mark)
				}
				return true
			})
		}
	}

	for _, s := range optionStructs {
		name := path.Base(s.pkg) + "." + s.name
		pkg := c.pkgs[s.pkg]
		if pkg == nil {
			t.Fatalf("%s: package not found", name)
		}
		obj, _ := pkg.Scope().Lookup(s.name).(*types.TypeName)
		if obj == nil {
			if !s.folded {
				t.Errorf("%s: not declared", name)
			}
			continue
		}
		if s.folded {
			t.Errorf("%s: declared again; it was folded into constants", name)
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			t.Errorf("%s: not a struct", name)
			continue
		}
		var unset []string
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); !set[obj][f.Name()] {
				unset = append(unset, f.Name())
			}
		}
		if len(unset) > 0 {
			t.Errorf("%s: no shipped code sets %s; make each a constant", name, strings.Join(unset, ", "))
		}
	}
}

// markSelector records lhs as a setter when it selects a field of an option
// struct outside that struct's own defaulting.
func markSelector(lhs ast.Expr, info *types.Info, target func(types.Type) *types.TypeName,
	defaults *types.TypeName, mark func(*types.TypeName, string)) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	if tn := target(s.Recv()); tn != nil && tn != defaults {
		mark(tn, sel.Sel.Name)
	}
}

// defaultedBy returns the option struct decl fills defaults for: decl is a
// method of it, a function of its package that takes it (a constructor
// filling zeros, such as ran.NewENB), or a function of its package that
// takes nothing and returns it.
func defaultedBy(decl ast.Decl, info *types.Info, target func(types.Type) *types.TypeName) *types.TypeName {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return nil
	}
	sig := info.Defs[fd.Name].(*types.Func).Type().(*types.Signature)
	if sig.Recv() != nil {
		return target(sig.Recv().Type())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if tn := target(sig.Params().At(i).Type()); tn != nil && tn.Pkg() == info.Defs[fd.Name].Pkg() {
			return tn
		}
	}
	if sig.Params().Len() == 0 && sig.Results().Len() == 1 {
		if tn := target(sig.Results().At(0).Type()); tn != nil && tn.Pkg() == info.Defs[fd.Name].Pkg() {
			return tn
		}
	}
	return nil
}

// Functions have callers: every function and method declared in shipped
// code outside bench/ is referenced from shipped code — any non-test file,
// cmd/, bench/ and examples/ included — other than its own body, or is
// reachable through an interface its type (or a type embedding it)
// implements, or through the errors package's Unwrap/Is/As contract, or
// has a "// Kept:" doc line naming the caller that keeps it. Code that
// only tests call is deleted with those tests.
func ruleFunctionsHaveCallers(t *testing.T, c *designCode) {
	called := map[*types.Func]bool{}
	for _, p := range sortedKeys(c.files) {
		c.eachUse(c.files[p], func(fd *ast.FuncDecl, id *ast.Ident, obj types.Object) {
			if fn, ok := obj.(*types.Func); ok && (fd == nil || c.info.Defs[fd.Name] != fn) {
				called[fn] = true
			}
		})
	}
	reach := c.interfaceReach()
	var missing []string
	for fn, fd := range c.decls {
		if strings.HasPrefix(c.name(fd.Pos()), "bench/") || fd.Recv == nil && (fn.Name() == "main" || fn.Name() == "init") {
			continue
		}
		if called[fn] || reach(fn) || hasKeptLine(fd.Doc) {
			continue
		}
		missing = append(missing, c.at(fd.Pos())+": "+fn.FullName())
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s has no caller in shipped code; delete it, or name its caller in a \"// Kept:\" doc line", m)
	}
}

// interfaceReach returns a test for whether a method can be called through
// an interface: some interface type in the type-check — declared or
// anonymous, in the module or in a package it imports — has a method of
// its name that a type holding the method in its method set implements.
// The errors package calls Unwrap, Is and As on any error.
func (c *designCode) interfaceReach() func(*types.Func) bool {
	byName := map[string][]*types.Interface{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
			}
		}
	}
	holders := map[*types.Func][]types.Type{}
	seenPkg := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if p == nil || seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			addIface(tn.Type())
			if strings.HasPrefix(p.Path(), "repro") {
				ms := types.NewMethodSet(types.NewPointer(tn.Type()))
				for i := 0; i < ms.Len(); i++ {
					fn := ms.At(i).Obj().(*types.Func).Origin()
					holders[fn] = append(holders[fn], types.NewPointer(tn.Type()))
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range sortedKeys(c.pkgs) {
		visit(c.pkgs[p])
	}
	for _, tv := range c.info.Types {
		if tv.Type != nil {
			addIface(tv.Type)
		}
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return func(fn *types.Func) bool {
		for _, h := range holders[fn] {
			if (fn.Name() == "Unwrap" || fn.Name() == "Is" || fn.Name() == "As") && types.Implements(h, errType) {
				return true
			}
			for _, it := range byName[fn.Name()] {
				if types.Implements(h, it) {
					return true
				}
			}
		}
		return false
	}
}
