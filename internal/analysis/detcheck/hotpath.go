package detcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"repro/internal/analysis"
)

// Hotpath is the static counterpart of the EC allocation budgets
// (the 7-alloc ScalarMult CI gate and the zero-alloc field kernels;
// the ecdsa verification gates above them count on both). In
// internal/ec and internal/ec/fp it enforces two rules:
//
//  1. math/big stays inside the approved boundary-conversion files —
//     the public big.Int API, the affine boundary, and the math/big
//     differential-oracle machinery. Any big.Int reference in the
//     limb-pure files (one diagnostic per function, at its
//     declaration) is either a regression toward per-digit heap
//     allocation or a boundary conversion that belongs in an approved
//     file; residual boundary sites in hot files carry
//     //detlint:allow hotpath annotations stating their O(1) cost.
//
//  2. Functions on the hot call graph — everything that can run under
//     ScalarMult, ScalarBaseMult, CombinedMult(N) or the fp field ops
//     (hotpathRoots) — must not call fmt or box concrete values into
//     interfaces: both allocate, and the budgets exist precisely to
//     keep the per-op allocation count fixed and small.
//
// Files selected only by the ec_purebig build tag (the differential
// oracle backend) never reach this check: the loader follows the
// default build configuration, same as the shipped binaries.
var Hotpath = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "flags math/big outside the approved boundary files and fmt/interface-boxing " +
		"on the call graph of ScalarMult, ScalarBaseMult, CombinedMult(N) and the fp field ops " +
		"in internal/ec and internal/ec/fp; " +
		"the static counterpart of the allocation-budget CI gates",
	Run: runHotpath,
}

// hotpathPkgs scopes the check to the EC hot path.
var hotpathPkgs = map[string]bool{
	"repro/internal/ec":    true,
	"repro/internal/ec/fp": true,
}

// approvedBigFiles are the boundary-conversion files where math/big
// is the point: the public big.Int-facing API (curve.go, point.go,
// scalar.go, field.go), the math/big oracle machinery that the
// differential tests diff against (jacobian.go, scalarmult.go,
// backend_select*.go), and fp.go's Field constructor, which digests
// the modulus into Montgomery constants once at startup.
var approvedBigFiles = map[string]bool{
	"curve.go":                  true,
	"point.go":                  true,
	"scalar.go":                 true,
	"field.go":                  true,
	"scalarmult.go":             true,
	"jacobian.go":               true,
	"backend_select.go":         true,
	"backend_select_purebig.go": true,
	"backend_fp.go":             true,
	"fp.go":                     true,
}

// hotpathRoots name the entry points of the hot call graph, across
// both packages: the scalar-multiplication API in ec, and the field
// operations in fp — among them the square root that point
// decompression runs on every handshake, its fixed-window
// exponentiation (pow), and the safegcd Inv. A root resolves by name
// to a function or method with a body in one of hotpathPkgs, so every
// name must be declared there (TestHotpathRootsDeclared).
var hotpathRoots = map[string]bool{
	"ScalarMult":     true,
	"ScalarBaseMult": true,
	"CombinedMult":   true,
	"CombinedMultN":  true,
	"Mul":            true,
	"Sqr":            true,
	"Add":            true,
	"Sub":            true,
	"Dbl":            true,
	"Neg":            true,
	"Half":           true,
	"Inv":            true,
	"BatchInv":       true,
	"Sqrt":           true,
	"pow":            true,
}

func runHotpath(pass *analysis.Pass) error {
	if !hotpathPkgs[pass.Path] {
		return nil
	}
	reportBigOutsideBoundary(pass)
	reportHotGraphAllocs(pass)
	return nil
}

// reportBigOutsideBoundary flags math/big references in files that
// are not approved boundary-conversion files, one diagnostic per
// enclosing declaration so a single annotation documents a whole
// boundary function.
func reportBigOutsideBoundary(pass *analysis.Pass) {
	for _, file := range pass.Files {
		base := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		if approvedBigFiles[base] {
			continue
		}
		for _, decl := range file.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.IMPORT {
				continue
			}
			pos, line := firstBigUse(pass, decl)
			if !pos.IsValid() {
				continue
			}
			target := "declaration"
			reportAt := decl.Pos()
			if fd, ok := decl.(*ast.FuncDecl); ok {
				target = fd.Name.Name
			} else {
				// Non-function declarations get the diagnostic at the
				// offending line itself so the annotation sits next to it.
				reportAt = pos
			}
			pass.Reportf(reportAt,
				"%s uses math/big in hot-path file %s (first use at line %d): keep limb-pure, or move the conversion to an approved boundary file",
				target, base, line)
		}
	}
}

// firstBigUse returns the position and line of the first math/big
// reference under n, or an invalid position.
func firstBigUse(pass *analysis.Pass, n ast.Node) (token.Pos, int) {
	found := token.NoPos
	ast.Inspect(n, func(n ast.Node) bool {
		if found.IsValid() {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && pkgPathOf(obj) == "math/big" {
			found = id.Pos()
		}
		return true
	})
	if !found.IsValid() {
		return token.NoPos, 0
	}
	return found, pass.Fset.Position(found).Line
}

// reportHotGraphAllocs flags fmt calls and interface boxing inside
// every function reachable from the hot-path roots.
func reportHotGraphAllocs(pass *analysis.Pass) {
	funcs := packageFuncs(pass)
	seeds := map[types.Object]bool{}
	for obj, fi := range funcs {
		if hotpathRoots[fi.decl.Name.Name] {
			seeds[obj] = true
		}
	}
	hot := forward(funcs, seeds)
	for obj, fi := range funcs {
		if !hot[obj] {
			continue
		}
		name := fi.decl.Name.Name
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeOf(pass, call); callee != nil && pkgPathOf(callee) == "fmt" {
				pass.Reportf(call.Pos(),
					"fmt.%s on the hot path (in %s): fmt boxes every operand and allocates — hot-path errors must be sentinel values",
					callee.Name(), name)
				return true
			}
			reportBoxingArgs(pass, call, name)
			return true
		})
	}
}

// reportBoxingArgs flags call arguments that implicitly convert a
// concrete value to an interface parameter — each such conversion is
// a potential heap allocation on the hot path.
func reportBoxingArgs(pass *analysis.Pass, call *ast.CallExpr, inFunc string) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
			// panic and friends: the only builtin that boxes is panic,
			// and a panicking hot path is a dead hot path — its one
			// allocation is not a budget concern.
			return
		}
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Explicit conversion T(x): boxing when T is an interface and
		// x is concrete.
		if len(call.Args) == 1 && isInterface(tv.Type) && isConcrete(pass, call.Args[0]) {
			pass.Reportf(call.Pos(),
				"conversion to interface %s on the hot path (in %s): boxing may allocate — keep hot-path values concrete",
				types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), inFunc)
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing here
			}
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		if isInterface(param) && isConcrete(pass, arg) {
			pass.Reportf(arg.Pos(),
				"interface boxing on the hot path (in %s): concrete %s passed as %s may allocate",
				inFunc,
				types.TypeString(pass.TypesInfo.Types[arg].Type, types.RelativeTo(pass.Pkg)),
				types.TypeString(param, types.RelativeTo(pass.Pkg)))
		}
	}
}

// isInterface reports whether t's underlying type is an interface.
func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// isConcrete reports whether the expression has a concrete
// (non-interface, non-nil) type — the case where passing it as an
// interface boxes it.
func isConcrete(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return !isInterface(tv.Type)
}
