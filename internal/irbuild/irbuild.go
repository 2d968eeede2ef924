// Package irbuild lowers analyzed MF programs to the CFG IR, inserting
// naive array subscript range checks.
//
// Check insertion follows the unoptimized regime of the paper: every array
// access (load or store) receives one lower-bound and one upper-bound
// check per dimension, placed immediately before the statement containing
// the access, in the paper's canonical form (§2.2). All later optimization
// starts from this naive program.
package irbuild

import (
	"fmt"
	"sort"

	"nascent/internal/ast"
	"nascent/internal/chaos"
	"nascent/internal/ir"
	"nascent/internal/linform"
	"nascent/internal/sem"
	"nascent/internal/source"
)

// Options control lowering.
type Options struct {
	// BoundsChecks inserts naive range checks for every array access.
	BoundsChecks bool
}

// Build lowers prog to IR. The returned program has predecessor lists
// computed and unreachable blocks removed, but critical edges not yet
// split (the optimizer does that).
func Build(prog *sem.Program, opts Options) (*ir.Program, error) {
	if chaos.Active() {
		key := ""
		if prog.Main != nil {
			key = prog.Main.Name
		}
		if chaos.Fire(chaos.SiteLowerPanic, key) {
			// Contained by the nascent.CompileTimed boundary as an
			// *InternalError with stage "lower".
			panic(chaos.PanicValue(chaos.SiteLowerPanic, key))
		}
	}
	b := &builder{
		sem:  prog,
		opts: opts,
		p:    &ir.Program{},
		vars: make(map[*sem.Symbol]*ir.Var),
		arrs: make(map[*sem.Symbol]*ir.Array),
		funs: make(map[*sem.Unit]*ir.Func),
	}

	// Globals first, in deterministic order.
	b.declareSymbols(prog.Main, true)

	// Create all funcs (empty) so calls can reference them.
	for _, u := range prog.Units {
		f := &ir.Func{Name: u.Name, IsMain: u == prog.Main}
		b.p.RegisterFunc(f)
		b.funs[u] = f
		if u != prog.Main {
			b.declareSymbols(u, false)
		}
	}

	// Attach params/locals to every func before lowering any body, so
	// calls can reference callee parameter types.
	for _, u := range prog.Units {
		b.attachSymbols(u)
	}

	// Lower bodies.
	for _, u := range prog.Units {
		if err := b.lowerUnit(u); err != nil {
			return nil, err
		}
	}
	return b.p, nil
}

// failf records the first lowering failure with its source position.
// Lowering stops emitting further statements once an error is recorded;
// Build returns it.
func (b *builder) failf(pos source.Pos, format string, args ...interface{}) {
	if b.err == nil {
		b.err = fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
	}
}

type builder struct {
	sem  *sem.Program
	opts Options
	p    *ir.Program
	vars map[*sem.Symbol]*ir.Var
	arrs map[*sem.Symbol]*ir.Array
	funs map[*sem.Unit]*ir.Func

	// per-unit lowering state
	f     *ir.Func
	unit  *sem.Unit
	cur   *ir.Block
	exit  *ir.Block
	tempN int
	mods  *modIndex // the unit's modifications, for DO bound invariance
	err   error     // first lowering failure (see failf)
}

func irType(t sem.Type) ir.Type {
	if t == sem.Integer {
		return ir.Int
	}
	return ir.Float
}

// declareSymbols creates IR vars/arrays for a unit's symbols in sorted
// order so IDs are deterministic.
func (b *builder) declareSymbols(u *sem.Unit, global bool) {
	table := u.Locals()
	if global {
		table = u.Program().Globals()
	}
	names := make([]string, 0, len(table))
	for n := range table {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := table[n]
		switch s.Kind {
		case sem.ScalarSym:
			b.vars[s] = b.p.NewVar(s.Name, irType(s.Type), global, false)
		case sem.ArraySym:
			dims := make([]ir.Bounds, len(s.Dims))
			for i, d := range s.Dims {
				dims[i] = ir.Bounds{Lo: d.Lo, Hi: d.Hi}
			}
			b.arrs[s] = b.p.NewArray(s.Name, irType(s.Type), dims, global)
		}
	}
}

// attachSymbols records a unit's locals, local arrays, and parameters on
// its (still empty) Func.
func (b *builder) attachSymbols(u *sem.Unit) {
	f := b.funs[u]
	table := u.Locals()
	if u == b.sem.Main {
		table = u.Program().Globals()
	}
	names := make([]string, 0, len(table))
	for n := range table {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := table[n]
		if v, ok := b.vars[s]; ok && !v.Global {
			f.Locals = append(f.Locals, v)
		}
		if a, ok := b.arrs[s]; ok && !a.Global {
			f.Arrays = append(f.Arrays, a)
		}
	}
	for _, ps := range u.Params {
		f.Params = append(f.Params, b.vars[ps])
	}
}

func (b *builder) lowerUnit(u *sem.Unit) error {
	f := b.funs[u]
	b.f = f
	b.unit = u
	b.tempN = 0
	b.mods = indexMods(u.AST.Body)

	entry := f.NewBlock("entry")
	b.exit = f.NewBlock("exit")
	b.exit.Term = &ir.Ret{}
	b.cur = entry

	b.lowerStmts(u.AST.Body)
	if b.err != nil {
		return fmt.Errorf("irbuild %s: %w", f.Name, b.err)
	}
	if b.cur.Term == nil {
		b.cur.Term = &ir.Goto{Target: b.exit}
	}
	f.RemoveUnreachable()
	if err := f.Verify(); err != nil {
		return fmt.Errorf("irbuild %s: %w", f.Name, err)
	}
	return nil
}

func (b *builder) newTemp(prefix string) *ir.Var {
	b.tempN++
	return b.f.NewTemp(fmt.Sprintf("%s.%s%d", prefix, b.f.Name, b.tempN), ir.Int)
}

func (b *builder) emit(s ir.Stmt) { b.cur.Stmts = append(b.cur.Stmts, s) }

// startBlock finishes the current block with a goto to next (if not
// already terminated) and makes next current.
func (b *builder) startBlock(next *ir.Block) {
	if b.cur.Term == nil {
		b.cur.Term = &ir.Goto{Target: next}
	}
	b.cur = next
}

func (b *builder) lowerStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		if b.err != nil {
			return
		}
		b.lowerStmt(s)
	}
}

func (b *builder) lowerStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		b.lowerAssign(s)
	case *ast.IfStmt:
		b.lowerIf(s)
	case *ast.DoStmt:
		b.lowerDo(s)
	case *ast.WhileStmt:
		b.lowerWhile(s)
	case *ast.CallStmt:
		callee := b.funs[b.sem.Subroutine(s.Name)]
		args := make([]ir.Expr, len(s.Args))
		for i, a := range s.Args {
			e := b.lowerExpr(a)
			b.emitChecksFor(e, s.Pos())
			want := callee.Params[i].Type
			args[i] = b.convert(e, want)
		}
		b.emit(&ir.CallStmt{Callee: callee, Args: args, SrcPos: s.Pos()})
	case *ast.PrintStmt:
		args := make([]ir.Expr, len(s.Args))
		for i, a := range s.Args {
			args[i] = b.lowerExpr(a)
			b.emitChecksFor(args[i], s.Pos())
		}
		b.emit(&ir.PrintStmt{Args: args, SrcPos: s.Pos()})
	case *ast.ReturnStmt:
		b.cur.Term = &ir.Goto{Target: b.exit}
		b.cur = b.f.NewBlock("afterreturn")
	default:
		b.failf(s.Pos(), "unknown statement %T", s)
	}
}

func (b *builder) lowerAssign(s *ast.AssignStmt) {
	sym := b.unit.Lookup(s.Name)
	val := b.lowerExpr(s.Value)
	if len(s.Indexes) == 0 {
		dst := b.vars[sym]
		b.emitChecksFor(val, s.Pos())
		b.emit(&ir.AssignStmt{Dst: dst, Src: b.convert(val, dst.Type), SrcPos: s.Pos()})
		return
	}
	arr := b.arrs[sym]
	idx := make([]ir.Expr, len(s.Indexes))
	for i, ix := range s.Indexes {
		idx[i] = b.lowerExpr(ix)
		b.emitChecksFor(idx[i], s.Pos())
	}
	b.emitChecksFor(val, s.Pos())
	b.emitBoundsChecks(arr, idx, s.Pos())
	b.emit(&ir.StoreStmt{Arr: arr, Idx: idx, Val: b.convert(val, arr.Elem), SrcPos: s.Pos()})
}

func (b *builder) lowerIf(s *ast.IfStmt) {
	cond := b.lowerExpr(s.Cond)
	b.emitChecksFor(cond, s.Pos())
	thenB := b.f.NewBlock("then")
	joinB := b.f.NewBlock("join")
	elseB := joinB
	if len(s.Else) > 0 {
		elseB = b.f.NewBlock("else")
	}
	b.cur.Term = &ir.If{Cond: cond, Then: thenB, Else: elseB}

	b.cur = thenB
	b.lowerStmts(s.Then)
	b.startBlock(joinB)

	if len(s.Else) > 0 {
		b.cur = elseB
		b.lowerStmts(s.Else)
		if b.cur.Term == nil {
			b.cur.Term = &ir.Goto{Target: joinB}
		}
		b.cur = joinB
	}
}

// simpleInvariantBound reports whether e can be used directly as the
// bound of DO s without copying to a temp: every scalar it reads is
// unassigned in the loop body, and every array it loads is unmodified
// there (calls make globals and global arrays unsafe). Keeping the
// original bound expression (e.g. 2*n in paper Figure 6) lets hoisted
// checks share families across loops and constant-fold; modified bounds
// are copied to a temp to preserve Fortran's fixed-trip-count semantics.
func (b *builder) simpleInvariantBound(e ir.Expr, s *ast.DoStmt) bool {
	m := b.mods
	body := m.body[s]
	hasCall := anyIn(m.calls, body)
	safe := true
	ir.WalkExpr(e, func(x ir.Expr) {
		switch x := x.(type) {
		case *ir.VarRef:
			if anyIn(m.assigned[x.Var.Name], body) || (hasCall && x.Var.Global) {
				safe = false
			}
		case *ir.Load:
			if anyIn(m.stored[x.Arr.Name], body) || (hasCall && x.Arr.Global) {
				safe = false
			}
		}
	})
	return safe
}

// modIndex records, in one pre-order walk of a unit's statements, the
// positions at which a call is made and at which each name a DO bound
// reads is assigned (scalars) or stored (arrays). A DO body is a
// contiguous range of pre-order positions, so whether the body modifies
// a name is one binary search, and lowering a loop nest costs time
// linear in its size rather than walking every enclosing body again.
type modIndex struct {
	assigned map[string][]int32       // scalar -> plain assignments and DO headers
	stored   map[string][]int32       // array -> element stores
	calls    []int32                  // call statements
	body     map[*ast.DoStmt][2]int32 // DO -> [start, end) of its body
}

func indexMods(stmts []ast.Stmt) *modIndex {
	// Only names that some DO bound reads are ever asked about.
	read := make(map[string]bool)
	note := func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Name:
			read[e.Ident] = true
		case *ast.Index:
			read[e.Name] = true
		}
	}
	ast.WalkStmts(stmts, func(s ast.Stmt) {
		if d, ok := s.(*ast.DoStmt); ok {
			ast.WalkExprs(d.Lo, note)
			ast.WalkExprs(d.Hi, note)
		}
	})
	m := &modIndex{
		assigned: make(map[string][]int32),
		stored:   make(map[string][]int32),
		body:     make(map[*ast.DoStmt][2]int32),
	}
	add := func(to map[string][]int32, name string, at int32) {
		if read[name] {
			to[name] = append(to[name], at)
		}
	}
	n := int32(0)
	var walk func([]ast.Stmt)
	walk = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			at := n
			n++
			switch s := s.(type) {
			case *ast.AssignStmt:
				if len(s.Indexes) == 0 {
					add(m.assigned, s.Name, at)
				} else {
					add(m.stored, s.Name, at)
				}
			case *ast.CallStmt:
				m.calls = append(m.calls, at)
			case *ast.IfStmt:
				walk(s.Then)
				walk(s.Else)
			case *ast.DoStmt:
				add(m.assigned, s.Var, at)
				walk(s.Body)
				m.body[s] = [2]int32{at + 1, n}
			case *ast.WhileStmt:
				walk(s.Body)
			}
		}
	}
	walk(stmts)
	return m
}

// anyIn reports whether the ascending positions ps include one in r.
func anyIn(ps []int32, r [2]int32) bool {
	i := sort.Search(len(ps), func(i int) bool { return ps[i] >= r[0] })
	return i < len(ps) && ps[i] < r[1]
}

func (b *builder) lowerDo(s *ast.DoStmt) {
	sym := b.unit.Lookup(s.Var)
	iv := b.vars[sym]

	step := int64(1)
	if s.Step != nil {
		v, ok := b.sem.EvalConst(b.unit, s.Step)
		if !ok {
			b.failf(s.Pos(), "do step must be a compile-time constant")
			return
		}
		if v == 0 {
			// sem rejects a literal zero; this catches folded-to-zero
			// steps so the nonzero-step IR invariant always holds.
			b.failf(s.Pos(), "do step must be nonzero")
			return
		}
		step = v
	}

	lo := b.lowerExpr(s.Lo)
	b.emitChecksFor(lo, s.Pos())
	hi := b.lowerExpr(s.Hi)
	b.emitChecksFor(hi, s.Pos())

	// Fortran semantics: the limit is fixed at loop entry. Use the bound
	// expression directly when provably invariant, else copy to a temp.
	limit := hi
	if !b.simpleInvariantBound(hi, s) {
		t := b.newTemp("lim")
		b.emit(&ir.AssignStmt{Dst: t, Src: hi, SrcPos: s.Pos()})
		limit = &ir.VarRef{Var: t}
	}
	loVal := lo
	if !b.simpleInvariantBound(lo, s) {
		t := b.newTemp("lo")
		b.emit(&ir.AssignStmt{Dst: t, Src: lo, SrcPos: s.Pos()})
		loVal = &ir.VarRef{Var: t}
	}
	b.emit(&ir.AssignStmt{Dst: iv, Src: loVal, SrcPos: s.Pos()})

	pre := b.cur
	header := b.f.NewBlock("dohead")
	body := b.f.NewBlock("dobody")
	after := b.f.NewBlock("doexit")
	b.startBlock(header)

	condOp := ir.OpLe
	if step < 0 {
		condOp = ir.OpGe
	}
	header.Term = &ir.If{
		Cond: &ir.Bin{Op: condOp, L: &ir.VarRef{Var: iv}, R: ir.CloneExpr(limit), Typ: ir.Bool},
		Then: body,
		Else: after,
	}

	info := &ir.DoLoopInfo{
		Preheader: pre,
		Header:    header,
		BodyEntry: body,
		Var:       iv,
		Lo:        ir.CloneExpr(loVal),
		Limit:     ir.CloneExpr(limit),
		Step:      step,
	}
	// Record outer loops before their nested loops.
	b.f.DoLoops = append(b.f.DoLoops, info)

	b.cur = body
	b.lowerStmts(s.Body)
	info.Latch = b.cur
	b.emit(&ir.AssignStmt{
		Dst:    iv,
		Src:    &ir.Bin{Op: ir.OpAdd, L: &ir.VarRef{Var: iv}, R: &ir.ConstInt{V: step}, Typ: ir.Int},
		SrcPos: s.Pos(),
	})
	b.cur.Term = &ir.Goto{Target: header}
	b.cur = after
}

func (b *builder) lowerWhile(s *ast.WhileStmt) {
	header := b.f.NewBlock("whilehead")
	body := b.f.NewBlock("whilebody")
	after := b.f.NewBlock("whileexit")
	b.startBlock(header)

	cond := b.lowerExpr(s.Cond)
	b.emitChecksFor(cond, s.Pos())
	header.Term = &ir.If{Cond: cond, Then: body, Else: after}

	b.cur = body
	b.lowerStmts(s.Body)
	if b.cur.Term == nil {
		b.cur.Term = &ir.Goto{Target: header}
	}
	b.cur = after
}

// ---------------------------------------------------------------------------
// Expressions

var binOps = map[ast.Op]ir.Op{
	ast.Add: ir.OpAdd, ast.Sub: ir.OpSub, ast.Mul: ir.OpMul, ast.Div: ir.OpDiv,
	ast.Eq: ir.OpEq, ast.Ne: ir.OpNe, ast.Lt: ir.OpLt, ast.Le: ir.OpLe,
	ast.Gt: ir.OpGt, ast.Ge: ir.OpGe, ast.And: ir.OpAnd, ast.Or: ir.OpOr,
}

// convert coerces e to the wanted type, inserting int/float conversions.
func (b *builder) convert(e ir.Expr, want ir.Type) ir.Expr {
	have := e.Type()
	if have == want {
		return e
	}
	switch {
	case have == ir.Int && want == ir.Float:
		return &ir.Call{Fn: ir.IntrFloat, Args: []ir.Expr{e}, Typ: ir.Float}
	case have == ir.Float && want == ir.Int:
		return &ir.Call{Fn: ir.IntrInt, Args: []ir.Expr{e}, Typ: ir.Int}
	}
	return e
}

func (b *builder) lowerExpr(e ast.Expr) ir.Expr {
	switch e := e.(type) {
	case *ast.IntLit:
		return &ir.ConstInt{V: e.Value}
	case *ast.RealLit:
		return &ir.ConstFloat{V: e.Value}
	case *ast.Name:
		sym := b.unit.Lookup(e.Ident)
		if sym != nil && sym.Kind == sem.ConstSym {
			return &ir.ConstInt{V: sym.ConstVal}
		}
		return &ir.VarRef{Var: b.vars[sym]}
	case *ast.Index:
		return b.lowerIndex(e)
	case *ast.Unary:
		x := b.lowerExpr(e.X)
		if e.Op == ast.Not {
			return &ir.Un{Op: ir.OpNot, X: x, Typ: ir.Bool}
		}
		// Fold negation of constants so canonical forms stay tidy.
		if c, ok := x.(*ir.ConstInt); ok {
			return &ir.ConstInt{V: -c.V}
		}
		if c, ok := x.(*ir.ConstFloat); ok {
			return &ir.ConstFloat{V: -c.V}
		}
		return &ir.Un{Op: ir.OpNeg, X: x, Typ: x.Type()}
	case *ast.Binary:
		l := b.lowerExpr(e.L)
		r := b.lowerExpr(e.R)
		op := binOps[e.Op]
		switch {
		case op == ir.OpAnd || op == ir.OpOr:
			return &ir.Bin{Op: op, L: l, R: r, Typ: ir.Bool}
		case op.IsComparison():
			l, r = b.promote(l, r)
			return &ir.Bin{Op: op, L: l, R: r, Typ: ir.Bool}
		default:
			l, r = b.promote(l, r)
			// Fold integer constant arithmetic so canonical check forms
			// see constants (e.g. n/2 with constant n).
			if lc, ok := l.(*ir.ConstInt); ok {
				if rc, ok := r.(*ir.ConstInt); ok {
					if v, ok := foldInt(op, lc.V, rc.V); ok {
						return &ir.ConstInt{V: v}
					}
				}
			}
			return &ir.Bin{Op: op, L: l, R: r, Typ: l.Type()}
		}
	}
	b.failf(e.Pos(), "unknown expression %T", e)
	return &ir.ConstInt{V: 0}
}

func foldInt(op ir.Op, l, r int64) (int64, bool) {
	switch op {
	case ir.OpAdd:
		return l + r, true
	case ir.OpSub:
		return l - r, true
	case ir.OpMul:
		return l * r, true
	case ir.OpDiv:
		if r != 0 {
			return l / r, true
		}
	}
	return 0, false
}

func (b *builder) promote(l, r ir.Expr) (ir.Expr, ir.Expr) {
	if l.Type() == ir.Float && r.Type() == ir.Int {
		return l, b.convert(r, ir.Float)
	}
	if l.Type() == ir.Int && r.Type() == ir.Float {
		return b.convert(l, ir.Float), r
	}
	return l, r
}

func (b *builder) lowerIndex(e *ast.Index) ir.Expr {
	if sym := b.unit.Lookup(e.Name); sym != nil && sym.Kind == sem.ArraySym {
		arr := b.arrs[sym]
		idx := make([]ir.Expr, len(e.Args))
		for i, a := range e.Args {
			idx[i] = b.lowerExpr(a)
		}
		return &ir.Load{Arr: arr, Idx: idx}
	}
	// Intrinsic call.
	fn := ir.IntrinsicByName[e.Name]
	args := make([]ir.Expr, len(e.Args))
	typ := ir.Int
	for i, a := range e.Args {
		args[i] = b.lowerExpr(a)
		if args[i].Type() == ir.Float {
			typ = ir.Float
		}
	}
	switch fn {
	case ir.IntrSqrt, ir.IntrFloat:
		typ = ir.Float
		for i := range args {
			args[i] = b.convert(args[i], ir.Float)
		}
	case ir.IntrInt:
		typ = ir.Int
	default:
		// mod/min/max/abs: promote all args to the common type.
		for i := range args {
			args[i] = b.convert(args[i], typ)
		}
	}
	return &ir.Call{Fn: fn, Args: args, Typ: typ}
}

// ---------------------------------------------------------------------------
// Range check insertion

// emitChecksFor inserts bounds checks for every array load inside e,
// innermost first (matching evaluation order).
func (b *builder) emitChecksFor(e ir.Expr, pos source.Pos) {
	if !b.opts.BoundsChecks {
		return
	}
	switch e := e.(type) {
	case *ir.Load:
		for _, ix := range e.Idx {
			b.emitChecksFor(ix, pos)
		}
		b.emitBoundsChecks(e.Arr, e.Idx, pos)
	case *ir.Bin:
		b.emitChecksFor(e.L, pos)
		b.emitChecksFor(e.R, pos)
	case *ir.Un:
		b.emitChecksFor(e.X, pos)
	case *ir.Call:
		for _, a := range e.Args {
			b.emitChecksFor(a, pos)
		}
	}
}

// cloneTerms deep-copies check terms so every CheckStmt owns its atom
// expression nodes (SSA maps each expression node occurrence to one SSA
// value, so nodes must never be shared between statements).
func cloneTerms(terms []ir.CheckTerm) []ir.CheckTerm {
	out := make([]ir.CheckTerm, len(terms))
	for i, t := range terms {
		out[i] = ir.CheckTerm{Coef: t.Coef, Atom: ir.CloneExpr(t.Atom)}
	}
	return out
}

// emitBoundsChecks inserts the lower and upper check for each dimension
// of an access arr(idx...), in the canonical form of paper §2.2:
//
//	lower: idx ≥ lo   ⇒   −terms(idx) ≤ const(idx) − lo
//	upper: idx ≤ hi   ⇒   +terms(idx) ≤ hi − const(idx)
func (b *builder) emitBoundsChecks(arr *ir.Array, idx []ir.Expr, pos source.Pos) {
	if !b.opts.BoundsChecks {
		return
	}
	for k, e := range idx {
		if k >= len(arr.Dims) {
			break
		}
		f := linform.Decompose(e)
		dim := arr.Dims[k]
		b.emit(&ir.CheckStmt{
			Terms:  cloneTerms(f.Scale(-1).Terms),
			Const:  f.Const - dim.Lo,
			Note:   fmt.Sprintf("%s dim %d lower", arr.Name, k+1),
			SrcPos: pos,
		})
		b.emit(&ir.CheckStmt{
			Terms:  cloneTerms(f.Terms),
			Const:  dim.Hi - f.Const,
			Note:   fmt.Sprintf("%s dim %d upper", arr.Name, k+1),
			SrcPos: pos,
		})
	}
}
