package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptExported lists the exported names that no production code calls
// but that stay exported, each with who needs it. Keys are
// "importpath.Name" for functions, types, variables and constants and
// "importpath.Type.Method" for methods.
var keptExported = map[string]string{
	"repro/internal/bitvec.MustFromString":         "fixture for test files in other packages",
	"repro/internal/bitvec.Ones":                   "fixture for test files in other packages",
	"repro/internal/bitvec.Vector.Xor":             "the ecc linearity and fuzz tests",
	"repro/internal/device.base.SetEnvironment":    "the device tests and integration_test.go move a device off the nominal point",
	"repro/internal/ecc.NewGolay":                  "the integration tests' perfect-code regime",
	"repro/internal/ecc.NewRepetition":             "the integration tests' code-agnostic claim",
	"repro/internal/faultinject.Enable":            "the campaignd chaos tests arm plans",
	"repro/internal/faultinject.Disable":           "the campaignd chaos tests disarm plans",
	"repro/internal/faultinject.Enabled":           "the campaignd chaos tests",
	"repro/internal/faultinject.Stats":             "the campaignd chaos tests",
	"repro/internal/faultinject.Points":            "the campaignd chaos tests",
	"repro/internal/helperdata.Image.Marshal":      "NVM round trips in the integration and attack tests",
	"repro/internal/helperdata.Unmarshal":          "NVM round trips in the integration and attack tests",
	"repro/internal/perm.OrderOf":                  "the groupbased tests' kendallStream reference",
	"repro/internal/rng.BlockNorm":                 "the reference in silicon/noise_test.go",
	"repro/internal/silicon.Readout.Noisy":         "the groupbased, device and tempco readout tests",
	"repro/internal/stats.SPRT.ExpectedSamples":    "the query-budget work on the SPRT (ROADMAP item 6)",
	"repro/internal/stats.Stddev":                  "the batch reference for the campaign and Welford tests",
	"repro/internal/tempco.DeterministicSelection": "the attack package's leakage test",
}

// stdlibMethods are method names that satisfy standard-library
// interfaces; the standard library calls them, not this module.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "ServeHTTP": true,
}

type exportedDecl struct {
	key  string // importpath.Name or importpath.Type.Method
	pkg  string // import path
	name string
	recv string // receiver type name; "" for a top-level name
	pos  token.Position
}

// exportedSurface parses every non-test Go file under root (the module)
// and under root/perfbench (the benchmark module, which only contributes
// references), without comments, and returns the module's exported
// declarations with the ones referenced nowhere but at their own
// declaration. A function, type, variable or constant counts as
// referenced by its name inside its package or qualified by its package
// elsewhere; a method by any selector or interface method of its name.
func exportedSurface(t *testing.T, root string) (decls []exportedDecl, unused []exportedDecl) {
	t.Helper()
	fset := token.NewFileSet()
	type parsed struct {
		pkg  string
		file *ast.File
	}
	var files []parsed
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		pkg := "repro"
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		files = append(files, parsed{pkg, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declIdents := map[*ast.Ident]bool{}
	for _, p := range files {
		if p.pkg == "repro/perfbench" || strings.HasPrefix(p.pkg, "repro/perfbench/") {
			continue
		}
		for _, d := range p.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				recv := ""
				if d.Recv != nil && len(d.Recv.List) == 1 {
					recv = receiverName(d.Recv.List[0].Type)
				}
				key := p.pkg + "." + d.Name.Name
				if recv != "" {
					key = p.pkg + "." + recv + "." + d.Name.Name
				}
				decls = append(decls, exportedDecl{key, p.pkg, d.Name.Name, recv, fset.Position(d.Name.Pos())})
				declIdents[d.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, n := range names {
						if !n.IsExported() {
							continue
						}
						decls = append(decls, exportedDecl{p.pkg + "." + n.Name, p.pkg, n.Name, "", fset.Position(n.Pos())})
						declIdents[n] = true
					}
				}
			}
		}
	}

	// bare[pkg][name] counts unqualified uses inside a package;
	// qualified[pkg][name] counts pkg.Name uses from importing files;
	// selected[name] counts every x.Name selector and interface method.
	bare := map[string]map[string]int{}
	qualified := map[string]map[string]int{}
	selected := map[string]int{}
	inc := func(m map[string]map[string]int, pkg, name string) {
		if m[pkg] == nil {
			m[pkg] = map[string]int{}
		}
		m[pkg][name]++
	}
	for _, p := range files {
		imports := map[string]string{}
		for _, im := range p.file.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			alias := path[strings.LastIndex(path, "/")+1:]
			if im.Name != nil {
				alias = im.Name.Name
			}
			imports[alias] = path
		}
		sels := map[*ast.Ident]bool{}
		ast.Inspect(p.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if path, ok := imports[x.Name]; ok {
						inc(qualified, path, n.Sel.Name)
						return true
					}
				}
				selected[n.Sel.Name]++
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						selected[name.Name]++
					}
				}
			case *ast.Ident:
				if !sels[n] && !declIdents[n] {
					inc(bare, p.pkg, n.Name)
				}
			}
			return true
		})
	}

	for _, d := range decls {
		var uses int
		if d.recv != "" {
			uses = selected[d.name]
			if stdlibMethods[d.name] {
				uses++
			}
		} else {
			uses = bare[d.pkg][d.name] + qualified[d.pkg][d.name]
		}
		if uses == 0 {
			unused = append(unused, d)
		}
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].key < unused[j].key })
	return decls, unused
}

func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// TestEveryExportedNameHasACaller fails on an exported declaration that
// no non-test code of this module or of perfbench references, unless
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
