package repro

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
	"sort"
	"strings"
	"testing"
)

// keptExported lists the exported names that no production code calls
// but that stay exported, each with who needs it. Keys are
// "importpath.Name" for functions, types, variables and constants and
// "importpath.Type.Method" for methods.
var keptExported = map[string]string{
	"repro/internal/bitvec.MustFromString":         "fixture for the ecc, groupbased, metrics, perm and tempco tests",
	"repro/internal/bitvec.Ones":                   "fixture for the attack, ecc and tempco tests",
	"repro/internal/bitvec.Vector.Xor":             "the ecc linearity and fuzz tests",
	"repro/internal/device.base.SetEnvironment":    "integration_test.go moves a device off the nominal point",
	"repro/internal/ecc.NewGolay":                  "the integration tests' perfect-code regime",
	"repro/internal/ecc.NewRepetition":             "the integration tests' code-agnostic claim",
	"repro/internal/faultinject.Enable":            "the campaignd chaos tests arm plans",
	"repro/internal/faultinject.Disable":           "the campaignd chaos tests disarm plans",
	"repro/internal/faultinject.Enabled":           "the campaignd chaos tests",
	"repro/internal/faultinject.Stats":             "the campaignd chaos tests",
	"repro/internal/faultinject.Points":            "the campaignd chaos tests",
	"repro/internal/helperdata.Image.Marshal":      "NVM round trips in integration_test.go",
	"repro/internal/helperdata.Unmarshal":          "NVM round trips in integration_test.go",
	"repro/internal/perm.OrderOf":                  "the groupbased tests' kendallStream reference",
	"repro/internal/rng.BlockNorm":                 "the reference in silicon/noise_test.go",
	"repro/internal/stats.Stddev":                  "the batch reference for the campaign and Welford tests",
	"repro/internal/tempco.DeterministicSelection": "the attack package's leakage test",
}

// stdlibInterfaces declares the standard-library interfaces whose
// methods the standard library itself calls (fmt, errors, net/http); a
// method that implements one has that caller.
const stdlibInterfaces = `package stdlib

import (
	"fmt"
	"net/http"
)

type (
	errorer   = error
	stringer  = fmt.Stringer
	handler   = http.Handler
	unwrapper interface{ Unwrap() error }
)
`

type exportedDecl struct {
	key string // importpath.Name or importpath.Type.Method
	obj types.Object
	pos token.Position
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportedSurface type-checks, as one universe, the non-test Go files of
// every package under root: the module, examples/ included, and
// perfbench/, the benchmark module, which only contributes uses. It
// returns the module's exported declarations and the ones no use
// resolves to. A use of a method resolves to it only through its own
// receiver type (a type embedding it included), or through a method of
// an interface that the receiver type implements: an interface the
// code calls, or one in stdlibInterfaces.
func exportedSurface(t *testing.T, root string) (decls []exportedDecl, unused []exportedDecl) {
	t.Helper()
	dirs := map[string]*build.Package{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := "repro"
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		dirs[importPath] = bp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	checked := map[string]*types.Package{}
	std := importer.Default()
	var check func(path string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if _, ok := dirs[path]; ok {
			return check(path)
		}
		return std.Import(path)
	})}
	check = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		bp := dirs[path]
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		p, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[path] = p
		return p, nil
	}
	for path := range dirs {
		if _, err := check(path); err != nil {
			t.Fatal(err)
		}
	}

	// The declarations: package-level names and the methods of concrete
	// types, outside perfbench.
	for id, obj := range info.Defs {
		if obj == nil || !obj.Exported() {
			continue
		}
		path := obj.Pkg().Path()
		if path == "repro/perfbench" || strings.HasPrefix(path, "repro/perfbench/") {
			continue
		}
		key := path + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
			recv := fn.Signature().Recv().Type()
			if types.IsInterface(recv) {
				continue
			}
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			key = path + "." + recv.(*types.Named).Obj().Name() + "." + obj.Name()
		} else if obj.Parent() != obj.Pkg().Scope() {
			continue // a field, a local or a type parameter
		}
		decls = append(decls, exportedDecl{key, obj, fset.Position(id.Pos())})
	}

	used := map[types.Object]bool{}
	var ifaceMethods []*types.Func
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			obj = fn
			if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceMethods = append(ifaceMethods, fn)
			}
		}
		used[obj] = true
	}
	stdFile, err := parser.ParseFile(fset, "stdlib.go", stdlibInterfaces, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdPkg, err := conf.Check("stdlib", fset, []*ast.File{stdFile}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range stdPkg.Scope().Names() {
		iface := stdPkg.Scope().Lookup(name).Type().Underlying().(*types.Interface)
		for i := range iface.NumMethods() {
			ifaceMethods = append(ifaceMethods, iface.Method(i))
		}
	}
	// implements reports whether a value of fn's receiver type, or a
	// pointer to it, satisfies the interface declaring m.
	implements := func(fn, m *types.Func) bool {
		if fn.Name() != m.Name() {
			return false
		}
		iface := m.Signature().Recv().Type().Underlying().(*types.Interface)
		recv := fn.Signature().Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		return types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)
	}

	for _, d := range decls {
		if used[d.obj] {
			continue
		}
		if fn, ok := d.obj.(*types.Func); ok && fn.Signature().Recv() != nil {
			if slices.ContainsFunc(ifaceMethods, func(m *types.Func) bool { return implements(fn, m) }) {
				continue
			}
		}
		unused = append(unused, d)
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].key < unused[j].key })
	return decls, unused
}

// TestEveryExportedNameHasACaller fails on an exported declaration that
// no non-test code of this module or of perfbench uses, unless
// keptExported names it with a reason.
func TestEveryExportedNameHasACaller(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	decls, unused := exportedSurface(t, root)
	t.Logf("%d exported declarations", len(decls))
	kept := map[string]bool{}
	for _, d := range unused {
		if _, ok := keptExported[d.key]; ok {
			kept[d.key] = true
			continue
		}
		t.Errorf("%s: exported %s has no caller outside tests; delete it, move it into a _test.go file, or add it to keptExported with a reason", d.pos, d.key)
	}
	// An entry whose name is gone or has gained a production caller
	// must leave the list, so the list stays the exact set of exceptions.
	for key := range keptExported {
		if !kept[key] {
			t.Errorf("keptExported lists %s, which is not an exported name without a caller", key)
		}
	}
}
