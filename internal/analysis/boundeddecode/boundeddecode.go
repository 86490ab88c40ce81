// Package boundeddecode enforces the wire-decode allocation rule of
// internal/store, internal/cluster and internal/frame (DESIGN.md
// §§9/10/13/15): every
// make() whose length or capacity derives from decoded wire bytes must
// be dominated by a comparison bounding that quantity (against a cap
// constant like maxFrameSize or against the remaining payload) before
// the allocation. This is the static face of the torn-tail/OOM
// hardening the fuzz targets probe dynamically: a hostile length prefix
// must never reach make() unchecked.
//
// The check: for each make() in a scoped package, every size operand
// must either be a compile-time constant, be derived purely from
// len()/cap() of in-memory values, or have each of its root
// identifiers/selector paths appear earlier in the function inside a
// relational or equality comparison (the bounding guard).
package boundeddecode

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
	Name:     "boundeddecode",
	Doc:      "wire-decode make() sizes must be bounds-checked before allocation",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// Packages is the comma-separated package-name scope. Wire decoding
// lives in store, cluster and frame; everything else is out of scope.
var Packages = "store,cluster,frame"

func init() {
	Analyzer.Flags.StringVar(&Packages, "decodepkgs", Packages,
		"comma-separated package names the bounded-decode rule applies to")
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !inScope(pass.Pkg.Name()) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allows := lintutil.CollectAllows(pass)

	// Walk function declarations; inside each, find make() calls and
	// check their size operands against earlier guards.
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		// The rule hardens production wire decoders; test helpers build
		// whatever shapes they like.
		if strings.HasSuffix(pass.Fset.Position(fd.Pos()).Filename, "_test.go") {
			return
		}
		var guards []*ast.BinaryExpr // relational comparisons, in source order
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if be, ok := n.(*ast.BinaryExpr); ok && isComparison(be.Op) {
				guards = append(guards, be)
			}
			return true
		})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "make" ||
				pass.TypesInfo.ObjectOf(id) != types.Universe.Lookup("make") {
				return true
			}
			for _, size := range call.Args[1:] {
				checkSize(pass, allows, guards, size)
			}
			return true
		})
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

func isComparison(op token.Token) bool {
	switch op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// checkSize validates one make() size operand.
func checkSize(pass *analysis.Pass, allows *lintutil.Allows, guards []*ast.BinaryExpr, size ast.Expr) {
	if tv, ok := pass.TypesInfo.Types[size]; ok && tv.Value != nil {
		return // compile-time constant
	}
	roots := rootPaths(pass, size)
	if len(roots) == 0 {
		return // built purely from len()/cap() and constants
	}
	for _, root := range roots {
		if !guardedBefore(guards, root, size.Pos()) {
			allows.Report(pass, size.Pos(),
				"make() sized by %s without a prior bound check; compare it against a cap (maxFrameSize-style) or the remaining payload first", root)
		}
	}
}

// rootPaths returns the printable identifier/selector paths a size
// expression depends on, excluding anything inside len()/cap() calls
// (lengths of in-memory values cannot be hostile).
func rootPaths(pass *analysis.Pass, e ast.Expr) []string {
	var roots []string
	seen := make(map[string]bool)
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			walk(e.X)
			walk(e.Y)
		case *ast.UnaryExpr:
			walk(e.X)
		case *ast.CallExpr:
			fn := ast.Unparen(e.Fun)
			if id, ok := fn.(*ast.Ident); ok {
				switch pass.TypesInfo.ObjectOf(id) {
				case types.Universe.Lookup("len"), types.Universe.Lookup("cap"),
					types.Universe.Lookup("min"):
					return // len(buf) etc. are trusted; min() is self-bounding
				}
				if _, isType := pass.TypesInfo.ObjectOf(id).(*types.TypeName); isType {
					// conversion like int(n): look through it
					for _, a := range e.Args {
						walk(a)
					}
					return
				}
			}
			if _, isConv := pass.TypesInfo.Types[e.Fun]; isConv && pass.TypesInfo.Types[e.Fun].IsType() {
				for _, a := range e.Args {
					walk(a)
				}
				return
			}
			// Any other call result is a root in its own right: its value
			// may come straight off the wire, and no guard on its
			// arguments bounds its result.
			path := types.ExprString(e)
			if !seen[path] {
				seen[path] = true
				roots = append(roots, path)
			}
		case *ast.Ident:
			if _, isConst := pass.TypesInfo.ObjectOf(e).(*types.Const); isConst {
				return
			}
			path := e.Name
			if !seen[path] {
				seen[path] = true
				roots = append(roots, path)
			}
		case *ast.SelectorExpr:
			if obj := pass.TypesInfo.ObjectOf(e.Sel); obj != nil {
				if _, isConst := obj.(*types.Const); isConst {
					return
				}
			}
			path := types.ExprString(e)
			if !seen[path] {
				seen[path] = true
				roots = append(roots, path)
			}
		case *ast.IndexExpr:
			walk(e.X)
		}
	}
	walk(e)
	return roots
}

// guardedBefore reports whether some comparison mentioning path appears
// before pos (the decoders are straight-line, so source order is a
// faithful stand-in for dominance).
func guardedBefore(guards []*ast.BinaryExpr, path string, pos token.Pos) bool {
	for _, g := range guards {
		if g.End() >= pos {
			continue
		}
		if mentions(g.X, path) || mentions(g.Y, path) {
			return true
		}
	}
	return false
}

// mentions reports whether the expression contains a sub-expression
// printing as path.
func mentions(e ast.Expr, path string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		sub, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		switch sub.(type) {
		case *ast.Ident, *ast.SelectorExpr:
			if types.ExprString(sub) == path {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
