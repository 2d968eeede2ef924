// Package core implements the range check optimization algorithm of
// Kolte & Wolfe (PLDI 1995) — the paper's primary contribution.
//
// The optimizer runs the paper's five steps per function:
//
//  1. Build the check implication graph (families + cross-family edges).
//  2. Compute safe insertion points (anticipatability).
//  3. Insert checks per the selected placement scheme: NI (none), CS
//     (check strengthening), SE (safe-earliest), LNI (latest-not-
//     isolated), LI (preheader insertion of invariant checks), LLS
//     (preheader insertion with loop-limit substitution), ALL (LLS+SE).
//  4. Compute availability and eliminate redundant checks.
//  5. Evaluate compile-time checks: true ⇒ delete, false ⇒ TRAP.
//
// Checks are optimized either as program-expression checks (PRX) or as
// induction-expression checks (INX, §2.3): INX mode rewrites each in-loop
// check into the induction expression of its subscript over the loop's
// basic variable h, materializing h in the loop.
package core

import (
	"fmt"
	"sort"

	"nascent/internal/chaos"
	"nascent/internal/dataflow"
	"nascent/internal/dom"
	"nascent/internal/guard"
	"nascent/internal/induction"
	"nascent/internal/ir"
	"nascent/internal/linform"
	"nascent/internal/loops"
	"nascent/internal/rangecheck"
	"nascent/internal/ssa"
)

// Scheme selects the check placement strategy (paper §3.3, §4.2).
type Scheme int

// Placement schemes, in the paper's Table 2 order.
const (
	// NI: redundancy elimination without any insertion of checks.
	NI Scheme = iota
	// CS: check strengthening only.
	CS
	// LNI: latest-not-isolated placement.
	LNI
	// SE: safe-earliest placement.
	SE
	// LI: preheader insertion of only loop-invariant checks.
	LI
	// LLS: preheader insertion with loop-limit substitution of linear
	// checks.
	LLS
	// ALL: loop-limit substitution followed by safe-earliest placement.
	ALL
	// MCM: Markstein-Cocke-Markstein restricted preheader insertion —
	// the comparison algorithm the paper's §5 proposes implementing:
	// hoist only simple checks from articulation nodes of loop bodies.
	MCM
)

var schemeNames = [...]string{NI: "NI", CS: "CS", LNI: "LNI", SE: "SE", LI: "LI", LLS: "LLS", ALL: "ALL", MCM: "MCM"}

func (s Scheme) String() string { return schemeNames[s] }

// hoists reports whether s moves checks out of loops (preheader
// insertion or MCM), the passes that read SSA, induction and
// dominators.
func (s Scheme) hoists() bool { return s == LI || s == LLS || s == ALL || s == MCM }

// Schemes lists the paper's placement schemes in Table 2 order (MCM, the
// §5 comparison algorithm, is not part of Table 2).
var Schemes = []Scheme{NI, CS, LNI, SE, LI, LLS, ALL}

// CheckKind selects how checks are constructed (paper §2.3, §4.3).
type CheckKind int

// Check kinds.
const (
	// PRX: checks over program expressions.
	PRX CheckKind = iota
	// INX: checks over induction expressions.
	INX
)

func (k CheckKind) String() string {
	if k == INX {
		return "INX"
	}
	return "PRX"
}

// Options configure one optimization run.
type Options struct {
	Scheme Scheme
	Kind   CheckKind
	Mode   rangecheck.Mode
	// Rotate converts while loops to guarded repeat loops before
	// optimization, enabling safe-earliest hoisting out of them
	// (paper §3.3's loop-rotation remark).
	Rotate bool
}

// Result reports what the optimizer did.
type Result struct {
	Options Options
	// ChecksBefore/After are static check counts over the whole program.
	ChecksBefore int
	ChecksAfter  int
	// Inserted counts checks added by the placement scheme (including
	// hoisted cond-checks).
	Inserted int
	// EliminatedAvail counts checks removed as available-redundant.
	EliminatedAvail int
	// EliminatedCover counts loop-body checks covered by hoisted
	// preheader checks.
	EliminatedCover int
	// EliminatedConst counts compile-time-true checks removed (step 5).
	EliminatedConst int
	// TrapsInserted counts compile-time-false checks replaced by TRAP.
	TrapsInserted int
	// Diagnostics holds messages for compile-time violations and
	// degradation events.
	Diagnostics []string
	// Degraded names the functions whose optimization failed and whose
	// naive (fully checked) bodies were restored. Counters of degraded
	// functions are excluded from this Result, so the arithmetic
	// identity ChecksAfter = ChecksBefore + Inserted − Eliminated* −
	// TrapsInserted holds with or without degradation.
	Degraded []string
}

// merge folds a successfully optimized function's counters into r.
func (r *Result) merge(o *Result) {
	r.Inserted += o.Inserted
	r.EliminatedAvail += o.EliminatedAvail
	r.EliminatedCover += o.EliminatedCover
	r.EliminatedConst += o.EliminatedConst
	r.TrapsInserted += o.TrapsInserted
	r.Diagnostics = append(r.Diagnostics, o.Diagnostics...)
}

// Optimize runs the range check optimizer over every function of p,
// mutating p in place.
//
// Optimize never panics and degrades gracefully: each function is
// snapshotted before transformation (a function of an ir.Program.Fork
// needs no snapshot: its origin is the naive body), and when a pass
// fails on one function — returned error or contained panic — that
// function's naive body is restored, the failure is recorded in
// Result.Degraded and Result.Diagnostics, and the remaining functions
// are still optimized.
// An error is returned only when the whole program is unusable (the
// final IR fails verification even after restoration).
func Optimize(p *ir.Program, opts Options) (res *Result, err error) {
	defer guard.Recover("optimize", "", &err)
	res = &Result{Options: opts, ChecksBefore: p.CountChecks()}
	for _, f := range p.Funcs {
		// A forked function restores from its origin, the unoptimized
		// lowering; any other function needs a snapshot of its own.
		var snap *ir.Func
		if !f.Forked() {
			snap = f.Snapshot()
		}
		fres := &Result{Options: opts}
		if ferr := optimizeFuncSafe(f, opts, fres); ferr != nil {
			if snap != nil {
				f.RestoreFrom(snap)
			} else {
				f.RestoreOrigin()
			}
			res.Degraded = append(res.Degraded, f.Name)
			res.Diagnostics = append(res.Diagnostics, fmt.Sprintf(
				"%s: optimizer failed (%v); naive checks kept for this function", f.Name, ferr))
			continue
		}
		res.merge(fres)
	}
	res.ChecksAfter = p.CountChecks()
	if verr := p.Verify(); verr != nil {
		return nil, fmt.Errorf("core: %w", verr)
	}
	return res, nil
}

// optimizeFuncSafe runs optimizeFunc with panic containment, so an
// internal invariant violation in one function surfaces as a
// stage-tagged error instead of killing the compile.
func optimizeFuncSafe(f *ir.Func, opts Options, res *Result) (err error) {
	defer guard.Recover("optimize", f.Name, &err)
	return optimizeFunc(f, opts, res)
}

// funcCtx bundles the per-function analyses. dom, ssa and ind are nil
// unless the scheme hoists or the kind is INX, and pdom is nil unless
// the scheme is MCM (see optimizeFunc).
type funcCtx struct {
	fn     *ir.Func
	opts   Options
	dom    *dom.Tree
	pdom   *dom.PostTree
	forest *loops.Forest
	ssa    *ssa.Info
	ind    *induction.Analysis
	// reg interns the function's check families once; every Env the
	// passes build shares it.
	reg *rangecheck.Registry
	res *Result
	// The hoisting passes' indexes (hoist.go), built when first needed:
	// the blocks holding checks, where the function assigns, stores and
	// calls, and what each cond-check reads.
	checks *checkIndex
	fx     *effectIndex
	reads  map[*ir.CheckStmt]*exprReads
	// work counts preheader insertion's dataflow block visits plus the
	// blocks its per-loop passes touch: the deterministic measure of its
	// cost that the scaling tests read.
	work int
}

// The analyses optimizeFunc builds; tests (export_test.go) wrap them to
// count the calls.
var (
	domCompute       = dom.Compute
	ssaBuild         = ssa.Build
	inductionAnalyze = induction.Analyze
	computePost      = dom.ComputePost
)

// failFunc, when set by tests (see export_test.go), makes optimizeFunc
// panic on the named function to exercise containment and degradation.
var failFunc string

func optimizeFunc(f *ir.Func, opts Options, res *Result) error {
	if failFunc != "" && f.Name == failFunc {
		panic("core: injected test failure in " + f.Name)
	}
	if chaos.Active() && chaos.Fire(chaos.SiteOptPanic, f.Name) {
		// Contained by optimizeFuncSafe; Optimize restores the naive
		// body and records the function in Result.Degraded.
		panic(chaos.PanicValue(chaos.SiteOptPanic, f.Name))
	}
	if opts.Rotate {
		rotateWhileLoops(f)
	}
	f.SplitCriticalEdges()
	tree := domCompute(f)
	// Loop analysis may create preheaders. The CFG topology is frozen
	// from here on (schemes only insert/remove statements).
	forest := loops.Analyze(f, tree)
	c := &funcCtx{fn: f, opts: opts, forest: forest, reg: rangecheck.NewRegistry(opts.Mode), res: res}

	// Each analysis is built only for the passes that read it: SSA,
	// induction and dominators for preheader insertion, MCM and INX
	// rewriting; post-dominators for MCM alone. NI, CS, SE and LNI over
	// PRX checks read none of them.
	if opts.Kind == INX || opts.Scheme.hoists() {
		if forest.NewPreheaders > 0 {
			tree = domCompute(f)
		}
		c.dom = tree
		c.ssa = ssaBuild(f, tree)
		c.ind = inductionAnalyze(f, forest, c.ssa)
	}
	if opts.Scheme == MCM {
		c.pdom = computePost(f)
	}

	if opts.Kind == INX {
		c.rewriteINX()
	}

	switch opts.Scheme {
	case NI:
		// no insertion
	case CS:
		c.strengthen()
	case SE:
		c.placeEarliest()
	case LNI:
		c.placeLatest()
	case LI:
		c.preheaderInsert(false)
	case LLS:
		c.preheaderInsert(true)
	case ALL:
		c.preheaderInsert(true)
		c.placeEarliest()
	case MCM:
		c.mcmHoist()
	}

	c.diagnoseCompileTime()
	c.eliminate()
	c.compileTime()
	if chaos.Active() && chaos.Fire(chaos.SiteOptMalformed, f.Name) {
		// Malformed-IR fault: drop the entry block's terminator. The
		// verifier below must flag it, which degrades the function to
		// its naive snapshot — the malformed body must never ship.
		f.Entry().Term = nil
	}
	return f.Verify()
}

// diagnoseCompileTime reports every compile-time-false check before
// elimination runs (availability may legitimately absorb duplicates of a
// failing constant check, but the paper reports all violations to the
// programmer).
func (c *funcCtx) diagnoseCompileTime() {
	c.fn.ForEachStmt(func(_ *ir.Block, _ int, s ir.Stmt) {
		chk, ok := s.(*ir.CheckStmt)
		if !ok || chk.Guard != nil || len(chk.Terms) != 0 || chk.Const >= 0 {
			return
		}
		c.res.Diagnostics = append(c.res.Diagnostics,
			fmt.Sprintf("%s: compile-time range violation at %s: %s [%s]",
				c.fn.Name, chk.SrcPos, chk, chk.Note))
	})
}

// newEnv snapshots the function's current checks for one analysis.
func (c *funcCtx) newEnv() *dataflow.Env { return dataflow.NewEnv(c.fn, c.reg) }

// ---------------------------------------------------------------------------
// Step 4: availability-based elimination

func (c *funcCtx) eliminate() {
	env := c.newEnv()
	availIn := env.Availability(dataflow.In)
	for _, b := range env.Order() {
		st := availIn.At(b).Clone()
		kept := b.Stmts[:0]
		for _, s := range b.Stmts {
			if chk, ok := s.(*ir.CheckStmt); ok && chk.Guard == nil {
				f := env.FamilyOf(chk)
				if st[f.Index] != rangecheck.AllChecks && st[f.Index] <= chk.Const {
					c.res.EliminatedAvail++
					continue // redundant: a check as strong is available
				}
			}
			env.TransferForward(st, s)
			kept = append(kept, s)
		}
		b.Stmts = kept
	}
}

// ---------------------------------------------------------------------------
// Step 5: compile-time checks

func (c *funcCtx) compileTime() {
	for _, b := range c.fn.Blocks {
		for i := 0; i < len(b.Stmts); i++ {
			chk, ok := b.Stmts[i].(*ir.CheckStmt)
			if !ok || len(chk.Terms) != 0 {
				continue
			}
			if chk.Const >= 0 {
				b.RemoveStmt(i)
				i--
				c.res.EliminatedConst++
				continue
			}
			if chk.Guard == nil {
				// Already reported by diagnoseCompileTime.
				b.ReplaceStmt(i, &ir.TrapStmt{Note: chk.Note, SrcPos: chk.SrcPos})
				c.res.TrapsInserted++
			}
			// A guarded compile-time-false check stays: it traps at run
			// time only when its guard (loop entry) is true.
		}
	}
}

// ---------------------------------------------------------------------------
// CS: check strengthening (Gupta), paper §3.3

func (c *funcCtx) strengthen() {
	env := c.newEnv()
	antOut := env.Anticipatability(dataflow.Out)
	for _, b := range env.Order() {
		st := antOut.At(b).Clone()
		for i := len(b.Stmts) - 1; i >= 0; i-- {
			s := b.Stmts[i]
			if chk, ok := s.(*ir.CheckStmt); ok && chk.Guard == nil {
				// st currently holds anticipatability just AFTER this
				// check: the strongest check that will be performed later
				// anyway. Strengthen if it is stronger than this one.
				f := env.FamilyOf(chk)
				if v := st[f.Index]; v != rangecheck.None && v != rangecheck.AllChecks && v < chk.Const {
					s = withConst(chk, v)
					b.Stmts[i] = s
				}
			}
			env.TransferBackward(st, s)
		}
	}
}

// ---------------------------------------------------------------------------
// SE: safe-earliest placement (Knoop-Rüthing-Steffen adapted to checks)

// placement is one insertion point: before statement at of block (at may
// equal len(block.Stmts) for end-of-block insertion).
type placement struct {
	block *ir.Block
	at    int
	value int64
	fam   *rangecheck.Family
	rank  int // fam's position in the Env's family list
}

// antPoints fills pts with the anticipatability state before each
// statement position of b, as rows of width w: row i holds the state
// just before b.Stmts[i], and row len(Stmts) equals antOut. pts is
// reused across calls; the grown slab is returned.
func antPoints(env *dataflow.Env, b *ir.Block, antOut dataflow.State, pts []int64) []int64 {
	w, n := len(antOut), len(b.Stmts)+1
	if cap(pts) < n*w {
		pts = make([]int64, n*w)
	}
	pts = pts[:n*w]
	copy(pts[(n-1)*w:], antOut)
	for i := n - 2; i >= 0; i-- {
		st := pts[i*w : (i+1)*w]
		copy(st, pts[(i+1)*w:(i+2)*w])
		env.TransferBackward(st, b.Stmts[i])
	}
	return pts
}

// kills reports whether s kills family fam.
func kills(s ir.Stmt, fam *rangecheck.Family) bool {
	switch s := s.(type) {
	case *ir.AssignStmt:
		return fam.KillsVar(s.Dst.ID)
	case *ir.StoreStmt:
		return fam.KillsArray(s.Arr.ID)
	case *ir.CallStmt:
		return fam.KilledByCall
	}
	return false
}

// earliestPlacements computes the safe-earliest insertion points (KRS
// adapted to the check lattice, at statement granularity): a check
// (fam, v) is placed where it first becomes anticipatable — at function
// entry, after a kill, or on an edge from a block where it is neither
// anticipatable nor available.
func (c *funcCtx) earliestPlacements(env *dataflow.Env) []placement {
	antOut := env.Anticipatability(dataflow.Out)
	availOut := env.Availability(dataflow.Out)

	var out []placement
	var pts []int64
	w := env.NumFamilies()
	entry := c.fn.Entry()
	for _, b := range env.Order() {
		pts = antPoints(env, b, antOut.At(b), pts)
		for rank, fam := range env.Families {
			idx := fam.Index
			// Block entry placement: anticipatable at entry of b and not
			// covered from every predecessor.
			v := pts[idx]
			if v != rangecheck.None && v != rangecheck.AllChecks {
				earliest := b == entry
				for _, p := range b.Preds {
					pa, pv := antOut.At(p)[idx], availOut.At(p)[idx]
					down := pa != rangecheck.AllChecks && pa <= v
					up := pv != rangecheck.AllChecks && pv <= v
					if !down && !up {
						earliest = true
					}
				}
				if earliest {
					out = append(out, placement{block: b, at: 0, value: v, fam: fam, rank: rank})
				}
			}
			// Intra-block: immediately after each kill where the family
			// becomes anticipatable again.
			for i, s := range b.Stmts {
				if !kills(s, fam) {
					continue
				}
				u := pts[(i+1)*w+idx]
				if u != rangecheck.None && u != rangecheck.AllChecks {
					out = append(out, placement{block: b, at: i + 1, value: u, fam: fam, rank: rank})
				}
			}
		}
	}
	return out
}

func (c *funcCtx) insertCheckAt(b *ir.Block, at int, fam *rangecheck.Family, v int64, note string) {
	chk := &ir.CheckStmt{
		Terms: cloneTerms(fam.Terms),
		Const: v,
		Note:  note,
	}
	b.InsertStmts(at, chk)
	c.res.Inserted++
}

func (c *funcCtx) placeEarliest() {
	env := c.newEnv()
	placements := c.earliestPlacements(env)
	// Insert back-to-front per block so earlier positions stay valid.
	sort.SliceStable(placements, func(i, j int) bool {
		if placements[i].block != placements[j].block {
			return placements[i].block.ID < placements[j].block.ID
		}
		return placements[i].at > placements[j].at
	})
	for _, pl := range placements {
		c.insertCheckAt(pl.block, pl.at, pl.fam, pl.value, "SE placement")
	}
}

// ---------------------------------------------------------------------------
// LNI: latest-not-isolated placement

// placeLatest computes the earliest placements, then delays each one as
// far down the CFG as possible (the LCM "delay" system): a placement
// moves forward until it meets an occurrence it covers (where it becomes
// a strengthening of that occurrence — an insertion immediately before
// an occurrence is "isolated" and folded into it), falls off a path that
// never uses it (no insertion there), or reaches a merge some other path
// of which cannot delay (insert on the incoming edge).
func (c *funcCtx) placeLatest() {
	env := c.newEnv()
	placements := c.earliestPlacements(env)

	type key struct {
		rank int
		v    int64
	}
	grouped := make(map[key][]placement)
	var orderKeys []key
	for _, pl := range placements {
		k := key{pl.rank, pl.value}
		if _, seen := grouped[k]; !seen {
			orderKeys = append(orderKeys, k)
		}
		grouped[k] = append(grouped[k], pl)
	}
	sort.Slice(orderKeys, func(i, j int) bool {
		if orderKeys[i].rank != orderKeys[j].rank {
			return orderKeys[i].rank < orderKeys[j].rank
		}
		return orderKeys[i].v < orderKeys[j].v
	})

	order := env.Order()
	for _, k := range orderKeys {
		fam := env.Families[k.rank]
		v := k.v

		// strengthenFirstOcc delays a placement through the statements of
		// b starting at position `at`. Returns true if the placement was
		// absorbed (by an occurrence or a kill); false if it delayed past
		// the block end.
		strengthenFirstOcc := func(b *ir.Block, at int) bool {
			for i := at; i < len(b.Stmts); i++ {
				s := b.Stmts[i]
				if chk, ok := s.(*ir.CheckStmt); ok && chk.Guard == nil && env.FamilyOf(chk) == fam {
					if chk.Const >= v {
						b.Stmts[i] = withConst(chk, v) // latest placement = strengthen the use
						return true
					}
					// A stronger check: every later use is covered by it;
					// the delayed placement is unnecessary on this path.
					return true
				}
				if kills(s, fam) {
					return true // path dies; ant guaranteed no use first
				}
			}
			return false
		}

		earliestExit := make(map[*ir.Block]bool)
		for _, pl := range grouped[k] {
			if !strengthenFirstOcc(pl.block, pl.at) {
				earliestExit[pl.block] = true
			}
		}
		if len(earliestExit) == 0 {
			continue
		}

		// occ/kill/cover summaries per block (first relevant event).
		occ := make(map[*ir.Block]bool)  // contains a use or provider
		kill := make(map[*ir.Block]bool) // kills the family
		for _, b := range order {
			for _, s := range b.Stmts {
				if chk, ok := s.(*ir.CheckStmt); ok && chk.Guard == nil && env.FamilyOf(chk) == fam {
					occ[b] = true
					break
				}
				if kills(s, fam) {
					kill[b] = true
					break
				}
			}
		}

		// LATERIN(b) = AND over preds of LATER(p,b);
		// LATER(p,b) = earliestExit(p) ∨ (LATERIN(p) ∧ ¬occ(p) ∧ ¬kill(p)).
		laterIn := make(map[*ir.Block]bool, len(order))
		for _, b := range order {
			laterIn[b] = len(b.Preds) > 0
		}
		changed := true
		for changed {
			changed = false
			for _, b := range order {
				if len(b.Preds) == 0 {
					continue
				}
				val := true
				for _, p := range b.Preds {
					if !(earliestExit[p] || (laterIn[p] && !occ[p] && !kill[p])) {
						val = false
						break
					}
				}
				if laterIn[b] != val {
					laterIn[b] = val
					changed = true
				}
			}
		}

		// Materialize: a block whose entry receives the delayed check
		// (laterIn) absorbs it at its first occurrence; edges that carry
		// the check into a merge that cannot accept it get an insertion
		// at the edge (end of pred, which has a single successor after
		// critical-edge splitting).
		for _, b := range order {
			if laterIn[b] {
				strengthenFirstOcc(b, 0)
				continue
			}
			for _, p := range b.Preds {
				carries := earliestExit[p] || (laterIn[p] && !occ[p] && !kill[p])
				if carries && len(p.Succs()) == 1 {
					c.insertCheckAt(p, len(p.Stmts), fam, v, "LNI placement")
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// INX: rewrite checks over induction expressions (paper §2.3, §4.3)

// rewriteINX replaces each in-loop check's range-expression with its
// induction expression over the innermost enclosing loop's basic
// variable h, when every atom classifies as invariant or linear. Loops
// whose h is referenced get it materialized (h=0 in the preheader,
// h=h+1 at each latch).
func (c *funcCtx) rewriteINX() {
	needH := make(map[*loops.Loop]bool)
	for _, b := range c.fn.Blocks {
		l := c.forest.LoopOf(b)
		if l == nil {
			continue
		}
		for i, s := range b.Stmts {
			chk, ok := s.(*ir.CheckStmt)
			if !ok || chk.Guard != nil {
				continue
			}
			ie := c.inxForm(chk, l)
			if ie == nil {
				continue
			}
			newTerms := ir.NormalizeTerms(cloneTerms(ie.Terms))
			// The rewritten check stays inside the loop body, so every
			// atom it reads must hold the same value throughout the
			// loop (h excepted).
			if !c.ind.LoopStableTerms(l, newTerms) {
				continue
			}
			inx := *chk
			inx.Terms, inx.Const = newTerms, chk.Const-ie.Const
			b.Stmts[i] = &inx
			h := c.ind.HVar(l)
			for _, t := range newTerms {
				if vr, ok := t.Atom.(*ir.VarRef); ok && vr.Var.ID == h.ID {
					needH[l] = true
				}
			}
		}
	}
	for l := range needH {
		c.materializeH(l)
	}
}

// inxForm returns the induction form of a check's range-expression, or
// nil when it is not expressible (then the PRX form is kept).
func (c *funcCtx) inxForm(chk *ir.CheckStmt, l *loops.Loop) *linform.Form {
	acc := linform.Form{}
	for _, t := range chk.Terms {
		var ie induction.IE
		if vr, ok := t.Atom.(*ir.VarRef); ok {
			use := c.ssa.UseOf[vr]
			if use == nil {
				return nil
			}
			ie = c.ind.IEOfValue(use, l)
		} else {
			ie = c.ind.IEOfOpaqueAtom(t.Atom, l, nil)
		}
		if ie.Class != induction.Invariant && ie.Class != induction.Linear {
			return nil
		}
		acc = acc.Add(ie.Form.Scale(t.Coef))
	}
	return &acc
}

// materializeH gives loop l a runtime basic variable: h=0 in the
// preheader, h=h+1 at the end of each latch.
func (c *funcCtx) materializeH(l *loops.Loop) {
	h := c.ind.HVar(l)
	pre := l.Preheader
	pre.InsertStmts(len(pre.Stmts), &ir.AssignStmt{Dst: h, Src: &ir.ConstInt{V: 0}})
	for _, latch := range l.Latches {
		latch.InsertStmts(len(latch.Stmts), &ir.AssignStmt{
			Dst: h,
			Src: &ir.Bin{Op: ir.OpAdd, L: &ir.VarRef{Var: h}, R: &ir.ConstInt{V: 1}, Typ: ir.Int},
		})
	}
}

// withConst returns a copy of chk with constant v. Passes replace a
// check rather than edit it: the function's snapshot shares statements
// (see ir.Func.Snapshot).
func withConst(chk *ir.CheckStmt, v int64) *ir.CheckStmt {
	c := *chk
	c.Const = v
	return &c
}

func cloneTerms(terms []ir.CheckTerm) []ir.CheckTerm {
	out := make([]ir.CheckTerm, len(terms))
	for i, t := range terms {
		out[i] = ir.CheckTerm{Coef: t.Coef, Atom: ir.CloneExpr(t.Atom)}
	}
	return out
}
