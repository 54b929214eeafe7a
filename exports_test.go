package weakkeys_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreached lists the declarations under internal/ that no program
// reaches but that stay, each with the test that holds the program to
// it. They are roots of the scan, so what they call stays too. The list
// can only shrink: TestNoDeadExports fails on a name here that is gone or
// that a program has come to reach.
var unreached = map[string]string{
	"internal/numtheory.IsSafePrime":             "oracle: the definition TestGenSafePrime and weakrsa's TestGenerateKeySafePrimes check each generated prime against",
	"internal/numtheory.FermatFactor":            "oracle: the unbounded Fermat ascent TestFermatFactorClosePrimes and anomaly's TestProbeBudgetsHoldAgainstGoldenModuli hold the bounded probe to",
	"internal/numtheory.PollardRho":              "oracle: textbook rho over big.Int, the reference checkAgainstOracle holds the Montgomery rho kernels to (TestPollardRhoFindsFactors)",
	"internal/population.Simulation.TruthSeries": "oracle: the generator's per-line ground truth TestSimTracksTargets, TestJuniperShape and TestHeartbleedIsLargestTruthDrop check the study's curves against",
	"internal/population.Simulation.TruthByFP":   "oracle: the generator's label per certificate, which core's TestFingerprintAccuracy and TestBatchGCDPrecision score the study against",
	"internal/telemetry.Registry.GaugeValue":     "oracle: reads a gauge back so TestCounterGaugeBasics, TestRunnerTelemetry and TestEngineAccounting can assert what an instrument recorded",
	"internal/certs.Certificate.Verify":          "oracle: checks a self-signature, so TestSignVerify and TestVerifyFailsAfterBitError can show the generated certificates are real",
	"internal/core.SnapshotTimeline":             "oracle: builds one snapshot per scan month, replayed by TestSnapshotTimeline",
	"internal/weakrsa.PrivateKey.Validate":       "oracle: N = PQ, both prime, D inverts E; TestGenerateKeyValid, TestRecoverPrivateKey and TestValidateRejectsTampering hold every generator to it",
}

// TestNoDeadExports type-checks every non-test package in the module and
// in bench/ and fails on a declaration under internal/ that no program
// reaches, exported or not, unless unreached lists it.
//
// The programs are cmd/, examples/ and bench/: every declaration there
// is a root, as are the oracles in unreached and every init function.
// A declaration reaches each function, method, type, variable and
// constant its syntax refers to, resolved by go/types, so a method is
// told apart by its receiver (one type's Leaves from another's). A
// variable or constant also reaches its named type.
//
// A method no reached code names is still reached when its receiver type
// is reached and the type implements an interface that either has the
// method and reached code calls it through that interface, or is one the
// standard library calls for itself (error, fmt.Stringer, io.Reader,
// net.Error, http.Handler, json.Marshaler, ...). A blank assertion such
// as var _ io.Reader = (*T)(nil) declares nothing, so it reaches nothing.
func TestNoDeadExports(t *testing.T) {
	const module = "github.com/factorable/weakkeys"
	fset := token.NewFileSet()
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	std := importer.Default()
	checked := map[string]*types.Package{}
	files := map[string][]*ast.File{} // by directory
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		dir, ok := strings.CutPrefix(path, module+"/")
		if !ok {
			return std.Import(path)
		}
		if p, ok := checked[path]; ok {
			return p, nil
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files[dir] = append(files[dir], f)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, fset, files[dir], info)
		checked[path] = p
		return p, err
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == "." {
			return err
		}
		if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			return nil // no non-test Go files here
		}
		_, err = imp(module + "/" + filepath.ToSlash(path))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// The graph: each declaration and the objects its syntax uses.
	type decl struct {
		name string // "internal/pkg.Name" or "internal/pkg.Type.Method"
		dir  string
		pos  token.Pos
		node ast.Node
	}
	decls := map[types.Object]*decl{}
	var inits []types.Object
	for dir, fs := range files {
		for _, f := range fs {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[d.Name]
					name := d.Name.Name
					if d.Recv != nil {
						recv := obj.Type().(*types.Signature).Recv().Type()
						if ptr, ok := recv.(*types.Pointer); ok {
							recv = ptr.Elem()
						}
						name = recv.(*types.Named).Obj().Name() + "." + name
					} else if name == "init" {
						inits = append(inits, obj)
					}
					decls[obj] = &decl{dir + "." + name, dir, d.Name.Pos(), d}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var ids []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							ids = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							ids = s.Names
						}
						for _, id := range ids {
							if id.Name != "_" {
								decls[info.Defs[id]] = &decl{dir + "." + id.Name, dir, id.Pos(), spec}
							}
						}
					}
				}
			}
		}
	}
	// The interface methods reached code calls, and those the standard
	// library calls for itself.
	type ifaceMethod struct {
		iface *types.Interface
		name  string
	}
	called := map[ifaceMethod]bool{}
	for _, iface := range standardInterfaces(t, std) {
		for i := 0; i < iface.NumMethods(); i++ {
			called[ifaceMethod{iface, iface.Method(i).Name()}] = true
		}
	}
	edges := func(obj types.Object) []types.Object {
		var out []types.Object
		use := func(o types.Object) {
			switch o := o.(type) {
			case *types.Func:
				if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					called[ifaceMethod{recv.Type().Underlying().(*types.Interface), o.Name()}] = true
					return
				}
				out = append(out, o.Origin())
			case *types.TypeName, *types.Var, *types.Const:
				out = append(out, o)
			}
		}
		if _, isType := obj.(*types.TypeName); !isType {
			use(namedOf(obj.Type()))
		}
		ast.Inspect(decls[obj].node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				use(info.Uses[id])
			}
			return true
		})
		return out
	}
	reached := map[types.Object]bool{}
	reach := func(roots []types.Object) {
		work := append([]types.Object(nil), roots...)
		for len(work) > 0 {
			for len(work) > 0 {
				obj := work[len(work)-1]
				work = work[:len(work)-1]
				if reached[obj] || decls[obj] == nil {
					continue
				}
				reached[obj] = true
				work = append(work, edges(obj)...)
			}
			// Methods reached through an interface, until none is new.
			for obj := range decls {
				m, ok := obj.(*types.Func)
				if !ok || reached[m] {
					continue
				}
				recv := m.Type().(*types.Signature).Recv()
				if recv == nil {
					continue
				}
				named := namedOf(recv.Type())
				if !reached[named] {
					continue
				}
				ptr := types.NewPointer(named.Type())
				for c := range called {
					if c.name == m.Name() && types.Implements(ptr, c.iface) {
						work = append(work, m)
						break
					}
				}
			}
		}
	}

	var roots []types.Object
	for obj, d := range decls {
		if !strings.HasPrefix(d.dir, "internal/") {
			roots = append(roots, obj)
		}
	}
	reach(append(roots, inits...))
	kept := map[string]bool{}
	var oracles []types.Object
	for obj, d := range decls {
		if _, ok := unreached[d.name]; ok {
			kept[d.name] = true
			oracles = append(oracles, obj)
			if reached[obj] {
				t.Errorf("unreached lists %s, which a program now reaches: drop it from the list", d.name)
			}
		}
	}
	for name := range unreached {
		if !kept[name] {
			t.Errorf("unreached lists %s, which is no longer declared: drop it from the list", name)
		}
	}
	reach(oracles)
	var dead []*decl
	for obj, d := range decls {
		if !reached[obj] {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	for _, d := range dead {
		t.Errorf("%s: no program reaches %s: delete it, move it into a test, or list it in unreached with the test that needs it", fset.Position(d.pos), d.name)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// namedOf returns the type name behind t or *t, or nil.
func namedOf(t types.Type) types.Object {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// standardInterfaces returns the interfaces the standard library calls
// on values handed to it.
func standardInterfaces(t *testing.T, std types.Importer) []*types.Interface {
	var out []*types.Interface
	for _, name := range []string{
		"fmt.Stringer", "fmt.GoStringer", "fmt.Formatter",
		"io.Reader", "io.Writer", "io.Closer", "io.ReaderFrom", "io.WriterTo",
		"net.Error", "net.Conn", "net.Listener", "net.Addr",
		"net/http.Handler", "net/http.RoundTripper", "net/http.Flusher",
		"sort.Interface", "container/heap.Interface", "flag.Value", "context.Context",
		"encoding.TextMarshaler", "encoding.TextUnmarshaler",
		"encoding/json.Marshaler", "encoding/json.Unmarshaler",
	} {
		dot := strings.LastIndex(name, ".")
		p, err := std.Import(name[:dot])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p.Scope().Lookup(name[dot+1:]).Type().Underlying().(*types.Interface))
	}
	// error, and the methods errors.Is, As and Unwrap look for.
	out = append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, src := range []string{"interface{ Unwrap() error }", "interface{ Unwrap() []error }", "interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, src)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tv.Type.Underlying().(*types.Interface))
	}
	return out
}
