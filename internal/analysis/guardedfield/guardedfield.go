// Package guardedfield mechanically enforces "guarded by <mu>" field
// comments (DESIGN.md §15). A struct field whose comment contains the
// machine-readable form
//
//	guarded by <mu>          — <mu> is a sync.Mutex/RWMutex sibling field
//	guarded by <Type>.<mu>   — the guard lives on the enclosing <Type>
//
// may only be read or written while that mutex is held on the path from
// function entry to the access. The pass walks each function in source
// order tracking Lock/Unlock pairs (defer mu.Unlock() holds to function
// end; locks taken inside a conditional do not leak past it).
//
// A field whose comment also says
//
//	written only by <fn>
//
// may be assigned, incremented or have its address taken only inside the
// function or method named <fn>: the one-writer rule for a state that
// moves through a single transition method. Composite-literal keys
// initialize a value that has not escaped yet and are not writes.
//
// Deliberate approximations, documented in the annotation grammar:
//   - methods whose receiver is the guarded struct's own type are exempt
//     when the guard lives on an enclosing type (guarded by Type.mu) —
//     such helpers are lock-classified by their callers;
//   - functions whose name ends in "Locked" assert the caller holds the
//     guard and are exempt;
//   - accesses through a value built by a composite literal in the same
//     function (constructors: the value has not escaped yet) are exempt.
package guardedfield

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "guardedfield",
	Doc:  "fields documented 'guarded by <mu>' must only be accessed with the mutex held",
	Run:  run,
}

var (
	guardedRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)`)
	writerRe  = regexp.MustCompile(`written only by ([A-Za-z_][A-Za-z0-9_]*)`)
)

// guard describes one guarded field.
type guard struct {
	// owner is the named struct type declaring the field.
	owner *types.Named
	// mu is the guard mutex's field name.
	mu string
	// outer is non-"" for the `guarded by Type.mu` form: the guard lives
	// on the enclosing type of that name, not on owner itself.
	outer string
}

func run(pass *analysis.Pass) (interface{}, error) {
	allows := lintutil.CollectAllows(pass)
	guards, writers := collectGuards(pass)
	if len(guards) == 0 && len(writers) == 0 {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkWriters(pass, allows, writers, fd)
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue // caller-holds-the-lock convention
			}
			w := &walker{
				pass:   pass,
				allows: allows,
				guards: guards,
				held:   make(map[string]bool),
				built:  make(map[types.Object]bool),
				exempt: receiverExemptions(pass, fd, guards),
			}
			w.stmts(fd.Body.List)
		}
	}
	return nil, nil
}

// collectGuards parses guarded-by annotations on struct fields, and the
// written-only-by annotations into the field's sole writer's name. A
// type-level guard annotation (on the type's doc comment) guards every
// field of the struct.
func collectGuards(pass *analysis.Pass) (map[fieldKey]guard, map[fieldKey]string) {
	guards := make(map[fieldKey]guard)
	writers := make(map[fieldKey]string)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[ts.Name]
				if !ok {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				typeGuard := match(guardedRe, ts.Doc)
				if typeGuard == "" && gd.Doc != nil && len(gd.Specs) == 1 {
					typeGuard = match(guardedRe, gd.Doc)
				}
				for _, fld := range st.Fields.List {
					if w := match(writerRe, fld.Doc, fld.Comment); w != "" {
						for _, name := range fld.Names {
							writers[fieldKey{named.Obj(), name.Name}] = w
						}
					}
					spec := match(guardedRe, fld.Doc, fld.Comment)
					if spec == "" {
						spec = typeGuard
					}
					if spec == "" {
						continue
					}
					g := parseGuard(named, spec)
					if !resolves(pass, g) {
						// Prose like "guarded by a mutex" or a typoed
						// name: only annotations naming a real mutex
						// field enforce.
						continue
					}
					for _, name := range fld.Names {
						if name.Name == g.mu {
							continue // a mutex cannot guard itself
						}
						guards[fieldKey{named.Obj(), name.Name}] = g
					}
				}
			}
		}
	}
	return guards, writers
}

type fieldKey struct {
	owner *types.TypeName
	field string
}

// match returns re's first submatch in the first comment group that has
// one, or "".
func match(re *regexp.Regexp, groups ...*ast.CommentGroup) string {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		if m := re.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// checkWriters reports writes to a written-only-by field from any function
// but its writer: assignments, increments, and taking its address (a
// pointer to the field is a write waiting to happen).
func checkWriters(pass *analysis.Pass, allows *lintutil.Allows, writers map[fieldKey]string, fd *ast.FuncDecl) {
	if len(writers) == 0 {
		return
	}
	check := func(e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		key, ok := fieldKeyOf(pass, sel)
		if w, restricted := writers[key]; ok && restricted && w != fd.Name.Name {
			allows.Report(pass, sel.Sel.Pos(), "%s.%s is written only by %s", key.owner.Name(), key.field, w)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				check(n.X)
			}
		}
		return true
	})
}

// fieldKeyOf resolves a field selector to its declaring named struct and
// field name.
func fieldKeyOf(pass *analysis.Pass, sel *ast.SelectorExpr) (fieldKey, bool) {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return fieldKey{}, false
	}
	base := s.Recv()
	if p, ok := base.(*types.Pointer); ok {
		base = p.Elem()
	}
	named, ok := base.(*types.Named)
	if !ok {
		return fieldKey{}, false
	}
	return fieldKey{named.Obj(), sel.Sel.Name}, true
}

func parseGuard(owner *types.Named, spec string) guard {
	if i := strings.IndexByte(spec, '.'); i >= 0 {
		return guard{owner: owner, outer: spec[:i], mu: spec[i+1:]}
	}
	return guard{owner: owner, mu: spec}
}

// resolves reports whether the guard names a real sync.Mutex/RWMutex
// field — on the owner struct itself (sibling form) or on the named
// outer type (Type.mu form).
func resolves(pass *analysis.Pass, g guard) bool {
	holder := g.owner
	if g.outer != "" {
		obj, ok := pass.Pkg.Scope().Lookup(g.outer).(*types.TypeName)
		if !ok {
			return false
		}
		holder, ok = obj.Type().(*types.Named)
		if !ok {
			return false
		}
	}
	st, ok := holder.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == g.mu && isMutex(f.Type()) {
			return true
		}
	}
	return false
}

// receiverExemptions exempts methods declared on the guarded struct
// itself when the guard lives on an enclosing type: m.completed inside
// (*metrics).observe cannot name the Service's mutex.
func receiverExemptions(pass *analysis.Pass, fd *ast.FuncDecl, guards map[fieldKey]guard) map[*types.TypeName]bool {
	exempt := make(map[*types.TypeName]bool)
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return exempt
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return exempt
	}
	for k, g := range guards {
		if k.owner == named.Obj() && g.outer != "" {
			exempt[k.owner] = true
		}
	}
	return exempt
}

// walker checks one function body in source order.
type walker struct {
	pass   *analysis.Pass
	allows *lintutil.Allows
	guards map[fieldKey]guard
	// held maps mutex path strings ("j.mu", "s.mu", "famMu") to true
	// while the walk believes the lock is held.
	held map[string]bool
	// built records local objects assigned from a composite literal in
	// this function: constructor-time accesses before escape.
	built map[types.Object]bool
	// exempt marks guarded owner types whose accesses this method may
	// touch freely (receiver-of-guarded-type, outer guard).
	exempt map[*types.TypeName]bool
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

// snapshot/restore bracket conditional regions: a lock taken inside one
// branch must not count as held after the branches rejoin.
func (w *walker) snapshot() map[string]bool {
	cp := make(map[string]bool, len(w.held))
	for k, v := range w.held {
		cp[k] = v
	}
	return cp
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.ExprStmt:
		if !w.lockEvent(s.X, false) {
			w.expr(s.X)
		}
	case *ast.DeferStmt:
		if !w.lockEvent(s.Call, true) {
			w.expr(s.Call)
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.expr(rhs)
			w.noteBuilt(s.Lhs, rhs)
		}
		for _, lhs := range s.Lhs {
			w.expr(lhs)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		saved := w.snapshot()
		w.stmt(s.Body)
		w.held = saved
		if s.Else != nil {
			saved = w.snapshot()
			w.stmt(s.Else)
			w.held = saved
		}
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		saved := w.snapshot()
		w.stmt(s.Body)
		w.stmt(s.Post)
		w.held = saved
	case *ast.RangeStmt:
		w.expr(s.X)
		saved := w.snapshot()
		w.stmt(s.Body)
		w.held = saved
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		for _, cc := range s.Body.List {
			saved := w.snapshot()
			if cc, ok := cc.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e)
				}
				w.stmts(cc.Body)
			}
			w.held = saved
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		for _, cc := range s.Body.List {
			saved := w.snapshot()
			if cc, ok := cc.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
			}
			w.held = saved
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			saved := w.snapshot()
			if cc, ok := cc.(*ast.CommClause); ok {
				w.stmt(cc.Comm)
				w.stmts(cc.Body)
			}
			w.held = saved
		}
	case *ast.GoStmt:
		// The goroutine runs later: whatever is held now is not held then.
		saved := w.held
		w.held = make(map[string]bool)
		w.expr(s.Call)
		w.held = saved
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
					for i, v := range vs.Values {
						if i < len(vs.Names) {
							w.noteBuilt([]ast.Expr{ast.Expr(vs.Names[i])}, v)
						}
					}
				}
			}
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

// noteBuilt records lhs identifiers assigned from composite literals
// (&T{...} or T{...}): constructor-pattern values not yet shared.
func (w *walker) noteBuilt(lhs []ast.Expr, rhs ast.Expr) {
	e := ast.Unparen(rhs)
	if ue, ok := e.(*ast.UnaryExpr); ok {
		e = ast.Unparen(ue.X)
	}
	if _, ok := e.(*ast.CompositeLit); !ok {
		return
	}
	for _, l := range lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok {
			if obj := w.pass.TypesInfo.ObjectOf(id); obj != nil {
				w.built[obj] = true
			}
		}
	}
}

// lockEvent recognises <path>.Lock/RLock/Unlock/RUnlock calls on
// sync.Mutex/RWMutex values and updates the held set. Returns true if
// the expression was consumed as a lock event.
func (w *walker) lockEvent(e ast.Expr, deferred bool) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	method := sel.Sel.Name
	switch method {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return false
	}
	if !isMutex(w.pass.TypesInfo.TypeOf(sel.X)) {
		return false
	}
	path := types.ExprString(sel.X)
	switch method {
	case "Lock", "RLock":
		w.held[path] = true
	case "Unlock", "RUnlock":
		if !deferred {
			delete(w.held, path)
		}
		// A deferred unlock releases at return: the lock stays held for
		// the rest of the walk.
	}
	return true
}

func isMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// expr checks guarded-field accesses inside an expression.
func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			// A closure runs with unknown locks; walk it with a fresh
			// held set (conservative for deferred cleanups, correct for
			// goroutine bodies handed elsewhere).
			saved := w.held
			w.held = make(map[string]bool)
			w.stmts(fl.Body.List)
			w.held = saved
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		w.checkSelector(sel)
		return true
	})
}

func (w *walker) checkSelector(sel *ast.SelectorExpr) {
	key, ok := fieldKeyOf(w.pass, sel)
	if !ok {
		return
	}
	g, ok := w.guards[key]
	if !ok || w.exempt[key.owner] {
		return
	}
	// Resolve which expression must have the guard: the selector base
	// for sibling guards, the base minus one selector hop for outer
	// guards (s.metrics.completed guarded by Service.mu → s.mu).
	baseExpr := ast.Unparen(sel.X)
	if g.outer != "" {
		inner, ok := baseExpr.(*ast.SelectorExpr)
		if !ok {
			return // receiver method on the guarded type: handled by exempt
		}
		baseExpr = ast.Unparen(inner.X)
	}
	if w.isBuilt(baseExpr) {
		return
	}
	muPath := types.ExprString(baseExpr) + "." + g.mu
	if w.held[muPath] {
		return
	}
	w.allows.Report(w.pass, sel.Sel.Pos(),
		"%s.%s is guarded by %s but accessed without holding it",
		key.owner.Name(), key.field, muPath)
}

// isBuilt reports whether the base expression's root identifier was
// assigned from a composite literal in this function.
func (w *walker) isBuilt(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := w.pass.TypesInfo.ObjectOf(id)
	return obj != nil && w.built[obj]
}
