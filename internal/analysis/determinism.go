package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// determinism forbids wall-clock and global-RNG use inside the simulation
// core. Cycle accounting there must be a pure function of the machine
// history: two runs of the same experiment must produce identical TSC
// values, or the paper's tables stop being reproducible. Harness and CLI
// packages (and _test.go files, which may set real-time deadlines) are
// exempt; seeded sources (hw.Rand, rand.New(rand.NewSource(seed))) are
// always fine.
//
// It also forbids package-level sync/atomic variables there: a
// process-global switch changes behaviour for every node in the process
// (and every test in the binary) at once, bypassing the per-enclave
// configuration in covirt.Features.
var determinism = &Analyzer{
	Name: checkDeterminism,
	Doc:  "simulation packages must not use wall-clock time, the global math/rand source or package-level sync/atomic variables",
	Run:  runDeterminism,
}

// bannedFuncs maps package path -> top-level functions whose results
// depend on wall-clock time or global process-seeded randomness.
var bannedFuncs = map[string]map[string]bool{
	"time": set("Now", "Since", "Until", "Sleep", "After", "Tick",
		"NewTicker", "NewTimer", "AfterFunc"),
	"math/rand": set("Int", "Intn", "Int31", "Int31n", "Int63", "Int63n",
		"Uint32", "Uint64", "Float32", "Float64", "ExpFloat64",
		"NormFloat64", "Perm", "Shuffle", "Read", "Seed"),
	"math/rand/v2": set("Int", "IntN", "Int32", "Int32N", "Int64", "Int64N",
		"Uint", "UintN", "Uint32", "Uint32N", "Uint64", "Uint64N",
		"Float32", "Float64", "ExpFloat64", "NormFloat64", "Perm",
		"Shuffle", "N"),
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func runDeterminism(p *Pass) []Finding {
	if !isSimPackage(p.Unit.Path) {
		return nil
	}
	var out []Finding
	for _, file := range p.Unit.Files {
		if isTestFile(p.Mod, file) {
			continue
		}
		reportAtomicGlobals(p, file, &out)
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.Unit.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Only top-level functions are banned: methods on a seeded
			// *rand.Rand are deterministic and fine.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			if banned := bannedFuncs[fn.Pkg().Path()]; banned != nil && banned[fn.Name()] {
				p.report(&out, checkDeterminism, id,
					"%s.%s breaks cycle determinism in simulation package %s; use CPU TSC / hw.Rand instead",
					fn.Pkg().Name(), fn.Name(), p.Unit.Path)
			}
			return true
		})
	}
	return out
}

// reportAtomicGlobals flags file-level var declarations whose type is (or
// is a pointer to, or an array of) a sync/atomic type.
func reportAtomicGlobals(p *Pass, file *ast.File, out *[]Finding) {
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			for _, name := range spec.(*ast.ValueSpec).Names {
				obj := p.Unit.Info.Defs[name]
				if obj == nil || !isAtomicType(obj.Type()) {
					continue
				}
				p.report(out, checkDeterminism, name,
					"package-level sync/atomic variable %s in simulation package %s is a process-global switch; configure per enclave (covirt.Features) instead",
					name.Name, p.Unit.Path)
			}
		}
	}
}

func isAtomicType(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Named:
			obj := u.Obj()
			return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
		default:
			return false
		}
	}
}
