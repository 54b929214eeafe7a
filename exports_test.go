package weakkeys_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// unreached lists the declarations under internal/ that no program
// reaches but that stay, each with the test that holds the program to
// it. They are roots of the scan, so what they call stays too. The list
// can only shrink: TestNoDeadExports fails on a name here that is gone or
// that a program has come to reach.
var unreached = map[string]string{
	"internal/numtheory.IsSafePrime":             "oracle: the definition TestGenSafePrime and weakrsa's TestGenerateKeySafePrimes check each generated prime against",
	"internal/numtheory.FermatFactor":            "oracle: the self-checking Fermat ascent TestFermatFactorClosePrimes and anomaly's TestProbeBudgetsHoldAgainstGoldenModuli and TestProbeMatchesOracle hold the probe to",
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
	m := loadModule(t)
	fset, info, files, std := m.fset, m.info, m.files, m.std

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

// settings lists the exported fields of exported structs under internal/
// that no program sets but that stay, each with the test that needs a
// value other than the default. The list can only shrink:
// TestNoUnsetFields fails on a field here that is gone or that a program
// has come to set.
var settings = map[string]string{
	"internal/keycheck.Config.Workers":     "TestServiceShedsWhenSaturated and TestServiceQueueWaitAdmits saturate a one-worker pool",
	"internal/keycheck.Config.QueueWait":   "TestServiceQueueWaitAdmits needs a 2 s admission window, wider than scheduling jitter, and TestServiceShedsWhenSaturated none",
	"internal/keycheck.Config.CacheSize":   "TestGoldenResponses' JSON bodies and BenchmarkServiceCheck need the uncached path",
	"internal/telemetry.EventConfig.Clock": "a fake clock, so TestEventLogBasic and the bundle and server tests can pin timestamps",
	"internal/devices.Server.Faults":       "fault injection: TestFaultRefuseAndReset, TestFaultStallHitsClientDeadline and zscan's TestTCPCancelDuringStall",
	"internal/zscan.TCPProber.Timeout":     "TestTCPCancelDuringStall would otherwise wait out the 5 s default",
	"internal/zscan.Options.Date":          "the two lives in TestEngineCheckpointRestartContinuesChain scan on different dates",
	"internal/devices.Server.Suites":       "the only way a device served over TCP can be RSA-only, pinned by TestSuitesAdvertised",
	"internal/tlslite.ClientConfig.Suites": "TestSuiteNegotiationRefusal's client offers no suite the server takes",
}

// TestNoUnsetFields fails on an exported field of an exported struct under
// internal/ that no program sets, unless settings lists it: such a field
// is a configuration that tests exercise and nothing runs.
//
// Code sets a field when it names it as a composite-literal key (or fills
// it in an unkeyed literal), names it anywhere along the selector, index,
// star and paren chain of an assignment's or ++/--'s left side, takes its
// address along such a chain, calls a pointer-receiver method on it, or
// converts a value into its struct type. All non-test code of the module
// and of bench/ counts, except that the field's own package does not set
// a field by only defaulting it: inside a withDefaults function, or by
// assigning the field itself under an if that compares it with a literal
// or nil.
func TestNoUnsetFields(t *testing.T) {
	m := loadModule(t)
	info := m.info
	fields := map[*types.Var]string{} // name: "internal/pkg.Type.Field"
	for dir, fs := range m.files {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range fs {
			for _, d := range f.Decls {
				d, ok := d.(*ast.GenDecl)
				if !ok || d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if _, ok := ts.Type.(*ast.StructType); !ok || !ts.Name.IsExported() {
						continue
					}
					st := info.Defs[ts.Name].Type().Underlying().(*types.Struct)
					for i := 0; i < st.NumFields(); i++ {
						if f := st.Field(i); f.Exported() {
							fields[f] = dir + "." + ts.Name.Name + "." + f.Name()
						}
					}
				}
			}
		}
	}

	set := map[*types.Var]bool{}
	for dir, fs := range m.files {
		pkg := modulePath + "/" + dir
		for _, file := range fs {
			var stack []ast.Node // the nodes enclosing the one inspected
			// mark records fs as set, unless the write only defaults one
			// in its own package.
			mark := func(lhs ast.Expr, fs ...*types.Var) {
				for _, f := range fs {
					if f.Pkg().Path() != pkg || !defaults(info, stack, lhs, f) {
						set[f] = true
					}
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.CompositeLit:
					st := structOf(info.Types[n].Type)
					if st == nil {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							mark(nil, info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin())
						} else {
							mark(nil, st.Field(i).Origin())
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						mark(lhs, chain(info, lhs)...)
					}
				case *ast.IncDecStmt:
					mark(n.X, chain(info, n.X)...)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(nil, chain(info, n.X)...)
					}
				case *ast.SelectorExpr:
					// A pointer method called on an addressable field.
					sel := info.Selections[n]
					if sel == nil || sel.Kind() != types.MethodVal {
						break
					}
					_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
					_, ptrOperand := sel.Recv().Underlying().(*types.Pointer)
					if ptrRecv && !ptrOperand {
						mark(nil, chain(info, n.X)...)
					}
				case *ast.CallExpr:
					if tv := info.Types[n.Fun]; tv.IsType() {
						if st := structOf(tv.Type); st != nil {
							for i := 0; i < st.NumFields(); i++ {
								mark(nil, st.Field(i).Origin())
							}
						}
					}
				}
				return true
			})
		}
	}

	var unset []string
	for f, name := range fields {
		_, listed := settings[name]
		switch {
		case listed && set[f]:
			t.Errorf("settings lists %s, which a program now sets: drop it from the list", name)
		case !listed && !set[f]:
			unset = append(unset, fmt.Sprintf("%s: no program sets %s: make its default a constant, or list it in settings with the test that needs another value", m.fset.Position(f.Pos()), name))
		}
	}
	declared := map[string]bool{}
	for _, name := range fields {
		declared[name] = true
	}
	for name := range settings {
		if !declared[name] {
			t.Errorf("settings lists %s, which is no longer declared: drop it from the list", name)
		}
	}
	sort.Strings(unset)
	for _, msg := range unset {
		t.Error(msg)
	}
}

// chain returns the fields named along e's selector, index, star and
// paren chain, outermost first; a promoted field brings the embedded
// fields it is reached through.
func chain(info *types.Info, e ast.Expr) []*types.Var {
	var out []*types.Var
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				var path []*types.Var
				t := sel.Recv()
				for _, i := range sel.Index() {
					f := structOf(t).Field(i).Origin()
					path = append(path, f)
					t = f.Type()
				}
				slices.Reverse(path)
				out = append(out, path...)
			}
			e = x.X
		default:
			return out
		}
	}
}

// structOf returns the struct behind t or *t, or nil.
func structOf(t types.Type) *types.Struct {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// defaults reports whether the write to lhs that stack ends in only
// defaults f: it sits in a withDefaults function, or lhs is f itself
// and an enclosing if compares f with a literal or nil.
func defaults(info *types.Info, stack []ast.Node, lhs ast.Expr, f *types.Var) bool {
	direct := lhs != nil && fieldOf(info, lhs) == f
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncDecl:
			return n.Name.Name == "withDefaults"
		case *ast.IfStmt:
			if direct && comparesWithLiteral(info, n.Cond, f) {
				return true
			}
		}
	}
	return false
}

// fieldOf returns the field e selects, or nil.
func fieldOf(info *types.Info, e ast.Expr) *types.Var {
	if x, ok := e.(*ast.SelectorExpr); ok {
		if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			return sel.Obj().(*types.Var).Origin()
		}
	}
	return nil
}

// comparesWithLiteral reports whether cond compares f with a literal or
// nil.
func comparesWithLiteral(info *types.Info, cond ast.Expr, f *types.Var) bool {
	literal := func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.BasicLit:
			return true
		case *ast.Ident:
			return info.Uses[e] == types.Universe.Lookup("nil")
		}
		return false
	}
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok {
			found = found || fieldOf(info, b.X) == f && literal(b.Y) || fieldOf(info, b.Y) == f && literal(b.X)
		}
		return !found
	})
	return found
}

// module is every non-test package of the module and of bench/, parsed
// and type-checked once for all the tests in this file.
type module struct {
	fset  *token.FileSet
	info  *types.Info
	files map[string][]*ast.File // by directory
	std   types.Importer         // the standard library, shared so its types are identical across uses
}

var (
	loadOnce   sync.Once
	loaded     module
	loadFailed error
)

func loadModule(t *testing.T) module {
	t.Helper()
	loadOnce.Do(func() { loaded, loadFailed = typeCheck() })
	if loadFailed != nil {
		t.Fatal(loadFailed)
	}
	return loaded
}

const modulePath = "github.com/factorable/weakkeys"

func typeCheck() (module, error) {
	m := module{
		fset: token.NewFileSet(),
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		files: map[string][]*ast.File{},
		std:   importer.Default(),
	}
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		dir, ok := strings.CutPrefix(path, modulePath+"/")
		if !ok {
			return m.std.Import(path)
		}
		if p, ok := checked[path]; ok {
			return p, nil
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			m.files[dir] = append(m.files[dir], f)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, m.fset, m.files[dir], m.info)
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
		_, err = imp(modulePath + "/" + filepath.ToSlash(path))
		return err
	})
	return m, err
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
