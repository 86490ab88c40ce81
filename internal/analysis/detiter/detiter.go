// Package detiter guards the determinism contracts of the schedule
// pipeline (DESIGN.md §§8/14/15) and of the metrics exposition: in
// internal/ordering, internal/sequence, internal/tuner and
// internal/metrics, iteration over a map must not feed order-sensitive
// state — Go randomizes map iteration order, so a schedule, candidate
// list, fingerprint, float accumulation or exposition built from one
// silently breaks the bit-identity, deterministic-search and sorted-output
// guarantees.
//
// Flagged sinks inside a map-range body:
//   - append (candidate/schedule lists) — unless the destination slice
//     is passed to a sort.*/slices.Sort* call later in the function,
//     which restores a canonical order;
//   - channel sends (downstream consumers see a random order);
//   - calls to Write/Sum* methods (hash/fingerprint accumulation);
//   - += or *= on floating-point values (rounding depends on order);
//   - += on strings (concatenation order is the value).
//
// Order-insensitive reductions (integer counters, min/max tracking, map
// writes, deletes) pass freely.
package detiter

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/analysis/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name:     "detiter",
	Doc:      "map iteration must not feed order-sensitive schedules, lists, fingerprints or float sums",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// Packages scopes the pass to the deterministic-output packages.
var Packages = "ordering,sequence,tuner,metrics"

func init() {
	Analyzer.Flags.StringVar(&Packages, "detpkgs", Packages,
		"comma-separated package names the deterministic-iteration rule applies to")
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !inScope(pass.Pkg.Name()) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allows := lintutil.CollectAllows(pass)

	ins.WithStack([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		rs := n.(*ast.RangeStmt)
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		var fn *ast.FuncDecl
		for _, anc := range stack {
			if fd, ok := anc.(*ast.FuncDecl); ok {
				fn = fd
			}
		}
		checkRange(pass, allows, rs, fn)
		return true
	})
	return nil, nil
}

func inScope(pkg string) bool {
	for _, p := range strings.Split(Packages, ",") {
		if strings.TrimSpace(p) == pkg {
			return true
		}
	}
	return false
}

func checkRange(pass *analysis.Pass, allows *lintutil.Allows, rs *ast.RangeStmt, fn *ast.FuncDecl) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, isB := pass.TypesInfo.ObjectOf(id).(*types.Builtin); isB && b.Name() == "append" && len(n.Args) > 0 {
					dst := types.ExprString(n.Args[0])
					if fn != nil && sortedLater(pass, fn, dst, rs.End()) {
						return true
					}
					allows.Report(pass, n.Pos(),
						"append to %s inside map iteration: order is randomized; sort the result or iterate sorted keys", dst)
					return true
				}
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				name := sel.Sel.Name
				if name == "Write" || name == "WriteString" || name == "WriteByte" || strings.HasPrefix(name, "Sum") {
					if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
						allows.Report(pass, n.Pos(),
							"%s call inside map iteration feeds a hash/fingerprint in random order", name)
					}
				}
			}
		case *ast.SendStmt:
			allows.Report(pass, n.Pos(), "channel send inside map iteration delivers in random order")
		case *ast.AssignStmt:
			if n.Tok != token.ADD_ASSIGN && n.Tok != token.MUL_ASSIGN {
				return true
			}
			for _, lhs := range n.Lhs {
				t := pass.TypesInfo.TypeOf(lhs)
				if t == nil {
					continue
				}
				switch b := t.Underlying().(type) {
				case *types.Basic:
					if b.Info()&types.IsFloat != 0 {
						allows.Report(pass, n.Pos(),
							"floating-point %s inside map iteration: summation order changes rounding and breaks bit-identity", n.Tok)
					} else if b.Info()&types.IsString != 0 {
						allows.Report(pass, n.Pos(),
							"string concatenation inside map iteration builds a random-order value")
					}
				}
			}
		}
		return true
	})
}

// sortedLater reports whether the slice path is passed to a
// sort.*/slices.Sort* call after the range loop in the same function —
// the canonical collect-then-sort idiom.
func sortedLater(pass *analysis.Pass, fn *ast.FuncDecl, path string, after token.Pos) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		if pn, isPkg := pass.TypesInfo.ObjectOf(pkgID).(*types.PkgName); !isPkg ||
			(pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
			return true
		}
		for _, a := range call.Args {
			if types.ExprString(a) == path {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
