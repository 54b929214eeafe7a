package weakkeys_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExports lists the exported names under internal/ that no non-test
// file references, each with why it is still there. It can only shrink:
// TestNoDeadExports fails on a dead name missing here, and on a name here
// that is gone or has gained a non-test caller.
var deadExports = map[string]string{
	// Oracles, test-only on purpose: the independent answer a test holds
	// the program to.
	"internal/numtheory.IsSafePrime":             "oracle: the definition the safe-prime generator's tests check each output against",
	"internal/numtheory.FermatFactor":            "oracle: the unbounded Fermat ascent anomaly's bounded probe is held to",
	"internal/numtheory.PollardRho":              "oracle: textbook rho over big.Int, the reference for the Montgomery rho kernels",
	"internal/population.Simulation.TruthSeries": "oracle: the generator's per-line ground truth the study's curves are checked against",
	"internal/telemetry.Registry.GaugeValue":     "oracle: reads a gauge back so tests can assert what an instrument recorded",
	"internal/certs.Certificate.Verify":          "oracle: checks a certificate's self-signature, so tests can show the generated certificates are real",
	"internal/core.SnapshotTimeline":             "oracle: builds one snapshot per scan month, replayed by the timeline tests",

	// An interface's method set, not deletable while it is a net.Error.
	"internal/zscan.simNetError.Temporary": "satisfies net.Error, whose method set still declares Temporary",

	// Everything else the scan finds today: each to delete under ROADMAP
	// 9(b) with the tests that exist only for it, or to unexport as an
	// in-package oracle.
	"internal/analysis.Series.At":              "to delete under 9(b)",
	"internal/certs.Certificate.EncodePEM":     "to delete under 9(b)",
	"internal/devices.CountByResponse":         "to delete under 9(b)",
	"internal/devices.FetchCert":               "to delete under 9(b)",
	"internal/devices.Notified2012Count":       "to delete under 9(b)",
	"internal/entropy.BootDevice":              "to delete under 9(b)",
	"internal/entropy.Pool.CreditedBits":       "to delete under 9(b)",
	"internal/fingerprint.IPOnlySubject":       "to delete under 9(b)",
	"internal/fingerprint.Result.MethodCounts": "to delete under 9(b)",
	"internal/fingerprint.Result.VendorCount":  "to delete under 9(b)",
	"internal/fingerprint.Unlabeled":           "to delete under 9(b)",
	"internal/numtheory.GCD":                   "to delete under 9(b)",
	"internal/numtheory.ModInverse":            "to delete under 9(b)",
	"internal/numtheory.TreeProduct":           "to delete under 9(b)",
	"internal/pipeline.Run":                    "to delete under 9(b)",
	"internal/population.Curve.Peak":           "to delete under 9(b)",
	"internal/population.Disclosure":           "to delete under 9(b)",
	"internal/population.Getrandom":            "to delete under 9(b)",
	"internal/population.Heartbleed":           "to delete under 9(b)",
	"internal/population.LinuxPatch":           "to delete under 9(b)",
	"internal/population.Month.Valid":          "to delete under 9(b)",
	"internal/population.Simulation.CACert":    "to delete under 9(b)",
	"internal/population.Simulation.TruthByFP": "to delete under 9(b)",
	"internal/weakrsa.Clique.KeyForDevice":     "to delete under 9(b)",
	"internal/weakrsa.IBMCliqueKeys":           "to delete under 9(b)",
	"internal/weakrsa.PrivateKey.Validate":     "to delete under 9(b)",
	"internal/weakrsa.PublicKey.VerifySig":     "to delete under 9(b)",
	"internal/zscan.Cycle.Generator":           "to delete under 9(b)",
	"internal/zscan.Engine.Cycle":              "to delete under 9(b)",
}

// TestNoDeadExports parses every non-test Go file in the repository
// (bench/ too: it is a program over internal/) and fails on an exported
// name declared under internal/ that no non-test file references, unless
// deadExports lists it. A function, type, variable or constant is
// referenced by its bare name inside its own package or as pkg.Name
// elsewhere. The scan does not count methods by receiver: it cannot tell
// one type's Verify from another's, so a method counts as referenced
// when any non-test file selects its name on anything, and a method
// reached only through a standard-library interface (a String, an Error)
// is flagged like any other.
func TestNoDeadExports(t *testing.T) {
	const module = "github.com/factorable/weakkeys/"
	fset := token.NewFileSet()
	declared := map[string]token.Position{} // "dir.Name" or "dir.Type.Method"
	used := map[string]bool{}               // "dir.Name" a non-test file references
	selected := map[string]bool{}           // names a non-test file selects, x.Name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		dir := filepath.ToSlash(filepath.Dir(path))
		own := map[*ast.Ident]bool{} // identifiers that declare rather than refer
		for _, decl := range f.Decls {
			for name, id := range declaredNames(decl) {
				own[id] = true
				if id.IsExported() && strings.HasPrefix(dir, "internal/") {
					declared[dir+"."+name] = fset.Position(id.Pos())
				}
			}
		}
		imports := map[string]string{} // local name → directory
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			if rel, ok := strings.CutPrefix(p, module); ok {
				name := filepath.Base(rel)
				if spec.Name != nil {
					name = spec.Name.Name
				}
				imports[name] = rel
			}
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// A type's own method receivers do not keep it alive.
				if recv := receiver(n); recv != nil {
					own[recv] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					own[id] = true
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if rel, ok := imports[x.Name]; ok {
						used[rel+"."+n.Sel.Name] = true
						return false
					}
				}
				selected[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !own[n] {
					used[dir+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	referenced := func(name string) bool {
		dir, rest, _ := strings.Cut(name, ".")
		if _, method, ok := strings.Cut(rest, "."); ok {
			return selected[method]
		}
		return used[dir+"."+rest]
	}
	var dead []string
	for name := range declared {
		if !referenced(name) {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		if _, ok := deadExports[name]; !ok {
			t.Errorf("%s: %s has no non-test caller: delete it, unexport it, or list it in deadExports with its reason", declared[name], name)
		}
	}
	for name := range deadExports {
		if _, ok := declared[name]; !ok {
			t.Errorf("deadExports lists %s, which is no longer declared: drop it from the list", name)
		} else if referenced(name) {
			t.Errorf("deadExports lists %s, which now has a non-test caller: drop it from the list", name)
		}
	}
}

// declaredNames returns what a top-level declaration declares, by name:
// "Name" for a function, type, variable or constant, "Type.Method" for a
// method.
func declaredNames(decl ast.Decl) map[string]*ast.Ident {
	names := map[string]*ast.Ident{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if recv := receiver(d); recv != nil {
			names[recv.Name+"."+d.Name.Name] = d.Name
		} else if d.Recv == nil {
			names[d.Name.Name] = d.Name
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				names[s.Name.Name] = s.Name
			case *ast.ValueSpec:
				for _, id := range s.Names {
					names[id.Name] = id
				}
			}
		}
	}
	return names
}

// receiver returns the type a method is declared on, or nil for a
// function.
func receiver(d *ast.FuncDecl) *ast.Ident {
	if d.Recv == nil {
		return nil
	}
	recv := d.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	id, _ := recv.(*ast.Ident)
	return id
}
