package overbook

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// optionStructs are the structs a caller fills to assemble a system. A
// folded struct was turned into constants and must stay deleted.
var optionStructs = []struct {
	pkg, name string
	folded    bool
}{
	{"repro", "Options", false},
	{"repro/internal/core", "Config", false},
	{"repro/internal/testbed", "Config", false},
	{"repro/internal/scenario", "Options", false},
	{"repro/internal/scenario", "FedOptions", true},
}

// TestOptionsHaveShippedSetters holds the option structs to the rule that a
// field exists only while shipped code sets it: every field must be set by
// a keyed literal or an assignment somewhere in the repository's non-test
// code outside examples/. A field no shipped caller varies is a constant.
// The struct's own defaulting — its methods and a parameterless function
// returning it, such as testbed.Default — only fills zeros and is not a
// setter.
func TestOptionsHaveShippedSetters(t *testing.T) {
	fset := token.NewFileSet()
	files, err := parseShipped(fset, ".")
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	imp := &shippedImporter{fset: fset, files: files, info: info,
		pkgs: map[string]*types.Package{}, std: importer.Default()}
	for p := range files {
		if _, err := imp.Import(p); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
	}

	// target finds the option struct named by a type, if it is one.
	target := func(typ types.Type) *types.TypeName {
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		n, ok := types.Unalias(typ).(*types.Named)
		if !ok || n.Obj().Pkg() == nil {
			return nil
		}
		for _, s := range optionStructs {
			if n.Obj().Pkg().Path() == s.pkg && n.Obj().Name() == s.name {
				return n.Obj()
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
	for _, pf := range files {
		for _, f := range pf {
			for _, decl := range f.Decls {
				defaults := defaultedBy(decl, info, target)
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						if tn := target(info.Types[n].Type); tn != nil && tn != defaults {
							for _, elt := range n.Elts {
								if kv, ok := elt.(*ast.KeyValueExpr); ok {
									mark(tn, kv.Key.(*ast.Ident).Name)
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							markSelector(lhs, info, target, defaults, mark)
						}
					case *ast.IncDecStmt:
						markSelector(n.X, info, target, defaults, mark)
					}
					return true
				})
			}
		}
	}

	for _, s := range optionStructs {
		name := path.Base(s.pkg) + "." + s.name
		pkg := imp.pkgs[s.pkg]
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
// method of it, or a function of its package that takes nothing and
// returns it.
func defaultedBy(decl ast.Decl, info *types.Info, target func(types.Type) *types.TypeName) *types.TypeName {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return nil
	}
	sig := info.Defs[fd.Name].(*types.Func).Type().(*types.Signature)
	if sig.Recv() != nil {
		return target(sig.Recv().Type())
	}
	if sig.Params().Len() == 0 && sig.Results().Len() == 1 {
		if tn := target(sig.Results().At(0).Type()); tn != nil && tn.Pkg() == info.Defs[fd.Name].Pkg() {
			return tn
		}
	}
	return nil
}

// parseShipped parses every non-test Go file of the module outside
// examples/, keyed by import path.
func parseShipped(fset *token.FileSet, root string) (map[string][]*ast.File, error) {
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "examples" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imp := "repro"
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			imp += "/" + dir
		}
		files[imp] = append(files[imp], f)
		return nil
	})
	return files, err
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
		return im.std.Import(p)
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(p, im.fset, files, im.info)
	im.pkgs[p] = pkg
	return pkg, err
}
