// Package innergrant requires every engine configuration in the
// experiment registry to name its worker bound.
//
// Parallelism is granted, never assumed. The engines and pools
// (fokkerplanck, sde, meanfield, netmf, sweep, netsim sweeps) read a
// zero worker bound as serial, and an experiment's inner-worker grant,
// Ctx.Inner(), is the only parallelism it has. An experiment spends
// that grant in one place: on its sweep cells, with every engine
// inside a cell built with Workers: 1, or on its single solver. A
// config literal that omits Workers says neither, so the reader cannot
// tell a solver that should own the grant from one that must not fork
// inside an already-parallel cell. The check flags such literals in
// internal/experiments, and NewParticles calls there whose positional
// worker bound is a constant 0. A literal that passes names its bound:
//
//	cfg := meanfield.Config{Classes: cs, Mu: mu, Workers: 1} // grant spent on the sweep cells
package innergrant

import (
	"go/ast"
	"go/constant"
	"go/types"

	"fpcc/internal/analysis"
	"fpcc/internal/analysis/config"
)

// Analyzer is the innergrant check.
var Analyzer = &analysis.Analyzer{
	Name: "innergrant",
	Doc:  "require engine and sweep config literals in internal/experiments to set Workers (0 means serial)",
	Run:  run,
}

var newParticles = map[string]bool{"NewParticles": true}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() != config.ExperimentsPackage {
		return nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				if name, ok := workerConfig(pass.TypesInfo.TypeOf(x)); ok && !setsWorkers(x) {
					pass.Reportf(x.Lbrace,
						"innergrant: %s literal omits Workers, which means serial: name the bound (ctx.Inner() where the engine owns the grant, 1 inside sweep cells) (//fpcc:innergrant -- <why> to suppress)",
						name)
				}
			case *ast.CallExpr:
				callee := analysis.CalleeOf(pass.TypesInfo, x)
				if analysis.IsPkgFunc(callee, config.MeanfieldPackage, newParticles) && len(x.Args) == 3 && isZero(pass.TypesInfo, x.Args[2]) {
					pass.Reportf(x.Args[2].Pos(),
						"innergrant: NewParticles with workers 0, which means serial: pass the grant or 1 (//fpcc:innergrant -- <why> to suppress)")
				}
			}
			return true
		})
	}
	return nil
}

// workerConfig reports whether t is one of the configured engine
// config types, returning its qualified name.
func workerConfig(t types.Type) (string, bool) {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || config.WorkerConfigs[obj.Pkg().Path()] != obj.Name() {
		return "", false
	}
	return obj.Pkg().Name() + "." + obj.Name(), true
}

// setsWorkers reports whether the literal sets Workers. A positional
// (unkeyed) literal lists every field, Workers included.
func setsWorkers(lit *ast.CompositeLit) bool {
	if len(lit.Elts) == 0 {
		return false
	}
	for _, e := range lit.Elts {
		kv, ok := e.(*ast.KeyValueExpr)
		if !ok {
			return true
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Workers" {
			return true
		}
	}
	return false
}

// isZero reports whether e is a constant expression equal to 0.
func isZero(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil && constant.Sign(tv.Value) == 0
}
