// Package interp executes IR programs and produces the dynamic counts the
// paper's evaluation is built on: executed non-check instructions and
// executed range checks, counted separately (Kolte & Wolfe §4, Table 1).
//
// # Cost model
//
// The interpreter charges abstract RISC-like instruction costs:
//
//	constant               0   (immediate)
//	scalar read            1   (load/register move)
//	binary/unary op        1
//	intrinsic call         1 (+ argument costs)
//	array load             1 + 2·(dims−1) (+ subscript costs)   address arith + load
//	array store            1 + 2·(dims−1) (+ subscript + value costs)
//	scalar assign          1 (+ value cost)
//	branch                 1 (+ condition cost)
//	goto / return          1
//	subroutine call        2 + #params (+ argument costs)
//	print                  1 (+ argument costs)
//
// A CheckStmt adds 1 to the separate check counter and nothing to the
// instruction counter; the paper estimates each check would compile to at
// least two instructions, which EXPERIMENTS.md applies when reproducing
// the paper's overhead estimate.
package interp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"nascent/internal/chaos"
	"nascent/internal/guard"
	"nascent/internal/ir"
	"nascent/internal/source"
)

// Config controls execution limits. Every budget is enforced with a
// typed *ResourceError (matched by errors.Is(err, ErrResourceExhausted))
// except MaxOutputBytes, which truncates instead of aborting.
type Config struct {
	// MaxInstructions aborts runs that exceed this many counted
	// instructions (0 means the 2e9 default).
	MaxInstructions uint64
	// MaxOutputBytes truncates program output beyond this size (0 means
	// 1 MiB).
	MaxOutputBytes int
	// MaxArrayCells caps the total number of array elements allocated
	// for one run, across all arrays of the program (0 means the 64 Mi
	// default). Exceeding it fails before execution starts.
	MaxArrayCells int64
	// Deadline aborts the run once the wall clock passes it (zero means
	// no deadline). Checked every few thousand instructions.
	Deadline time.Time
	// Context, when non-nil, cancels the run when its Done channel
	// closes. Checked on the same cadence as Deadline.
	Context context.Context
	// Engine selects the execution substrate (default EngineTree, the
	// reference tree-walker). Every engine produces identical
	// observables; see Engine. Run executes only EngineTree;
	// nascent.Program.RunWith executes every engine.
	Engine Engine
}

// TrapClass distinguishes how a trap was raised.
type TrapClass string

// Trap classes.
const (
	// TrapCheck: a range check comparison failed at run time.
	TrapCheck TrapClass = "check"
	// TrapStatic: a compile-time-detected violation (TrapStmt) executed.
	TrapStatic TrapClass = "static"
)

// Result is the outcome of executing a program.
type Result struct {
	// Instructions is the dynamic count of non-check instructions.
	Instructions uint64
	// Checks is the dynamic count of performed range checks. A
	// cond-check whose guard evaluates false performs no range check;
	// its guard test is charged as an ordinary instruction.
	Checks uint64
	// Trapped reports that a range check failed (or a TrapStmt executed).
	Trapped bool
	// TrapNote describes the failed check when Trapped.
	TrapNote string
	// TrapClass classifies the trap when Trapped ("" otherwise).
	TrapClass TrapClass
	// TrapPos is the source position of the trapping check when known.
	TrapPos source.Pos
	// Output is the accumulated print output.
	Output string
}

// ErrLimit is returned when the instruction budget is exhausted. It is
// kept for compatibility; the returned error is a *ResourceError that
// also matches ErrResourceExhausted.
var ErrLimit = errors.New("interp: instruction limit exceeded")

// ErrResourceExhausted is the sentinel matched by errors.Is for every
// exhausted execution budget.
var ErrResourceExhausted = errors.New("interp: resource exhausted")

// Resource identifies which execution budget a ResourceError exhausted.
type Resource int

// Budget kinds.
const (
	// ResInstructions: Config.MaxInstructions.
	ResInstructions Resource = iota
	// ResArrayCells: Config.MaxArrayCells.
	ResArrayCells
	// ResDeadline: Config.Deadline passed.
	ResDeadline
	// ResCancelled: Config.Context was cancelled.
	ResCancelled
)

var resourceNames = [...]string{
	ResInstructions: "instruction budget",
	ResArrayCells:   "array cell budget",
	ResDeadline:     "deadline",
	ResCancelled:    "context",
}

func (r Resource) String() string {
	if int(r) < len(resourceNames) {
		return resourceNames[r]
	}
	return fmt.Sprintf("Resource(%d)", int(r))
}

// ResourceError reports an exhausted execution budget, distinguishing
// which one.
type ResourceError struct {
	// Resource is the exhausted budget kind.
	Resource Resource
	// Limit is the configured budget (0 for Deadline/Cancelled).
	Limit uint64
}

func (e *ResourceError) Error() string {
	switch e.Resource {
	case ResDeadline:
		return "interp: deadline exceeded"
	case ResCancelled:
		return "interp: run cancelled"
	}
	return fmt.Sprintf("interp: %s exceeded (%d)", e.Resource, e.Limit)
}

// Is matches ErrResourceExhausted for every budget kind, and keeps the
// historical errors.Is(err, ErrLimit) working for instruction budgets.
func (e *ResourceError) Is(target error) bool {
	if target == ErrResourceExhausted {
		return true
	}
	return e.Resource == ResInstructions && target == ErrLimit
}

// ErrRecursion is returned on recursive subroutine calls (MF, like
// Fortran 77, does not support recursion).
var ErrRecursion = errors.New("interp: recursive call")

type trapSignal struct {
	note  string
	class TrapClass
	pos   source.Pos
}

type runtimeError struct{ err error }

// The run contract's budget and poll shell. Every engine — the tree
// walker here and the switch VM in internal/vm — applies the
// same limit defaults, charges cost against one threshold, and takes
// the same slow path when the count crosses it.

// pollInterval is how many counted instructions pass between
// deadline/cancellation polls (a power of two; the check itself is a
// couple of nanoseconds so the poll is invisible in the cost model).
const pollInterval = 1 << 14

// WithDefaults returns cfg with each zero limit set to its default: 2e9
// instructions, 1 MiB of output, 64 Mi array cells.
func (cfg Config) WithDefaults() Config {
	if cfg.MaxInstructions == 0 {
		cfg.MaxInstructions = 2e9
	}
	if cfg.MaxOutputBytes == 0 {
		cfg.MaxOutputBytes = 1 << 20
	}
	if cfg.MaxArrayCells == 0 {
		cfg.MaxArrayCells = 64 << 20
	}
	return cfg
}

// FirstThreshold is the instruction count past which a run's cost
// charge first leaves its fast path. A run polls when it has a
// Deadline or a Context, or when a chaos spec is installed (injection
// rides the poll cadence); its threshold starts at 0, so the first
// charge polls. Otherwise it never polls, and the threshold is the
// budget. With injection off, the chaos test is one atomic read.
func (cfg *Config) FirstThreshold() uint64 {
	if !cfg.Deadline.IsZero() || cfg.Context != nil || chaos.Active() {
		return 0
	}
	return cfg.MaxInstructions
}

// PollSites names the chaos sites an engine's polls fire: a spurious
// budget exhaustion, a spurious cancellation, and an induced panic that
// the engine's Run boundary must contain as an *InternalError with
// stage "run".
type PollSites struct{ Budget, Cancel, Panic chaos.Site }

var treePoll = PollSites{chaos.SiteTreeBudget, chaos.SiteTreeCancel, chaos.SiteTreePanic}

// Recharge is every engine's cost-charge slow path: the count instr
// crossed the threshold, so either the budget is blown or a poll is
// due. A poll fires the chaos sites, keyed by fn (the executing
// function, so a fault is deterministic per run), then checks the
// context, then the deadline. Recharge returns the next threshold: one
// poll interval on, capped at the budget.
func (cfg *Config) Recharge(instr uint64, sites *PollSites, fn string) (uint64, error) {
	if instr > cfg.MaxInstructions {
		return 0, &ResourceError{Resource: ResInstructions, Limit: cfg.MaxInstructions}
	}
	if chaos.Active() {
		if chaos.Fire(sites.Budget, fn) {
			return 0, &ResourceError{Resource: ResInstructions, Limit: cfg.MaxInstructions}
		}
		if chaos.Fire(sites.Cancel, fn) {
			return 0, &ResourceError{Resource: ResCancelled}
		}
		if chaos.Fire(sites.Panic, fn) {
			panic(chaos.PanicValue(sites.Panic, fn))
		}
	}
	if ctx := cfg.Context; ctx != nil {
		select {
		case <-ctx.Done():
			return 0, &ResourceError{Resource: ResCancelled}
		default:
		}
	}
	if !cfg.Deadline.IsZero() && time.Now().After(cfg.Deadline) {
		return 0, &ResourceError{Resource: ResDeadline}
	}
	if cfg.MaxInstructions-instr < pollInterval {
		return cfg.MaxInstructions, nil
	}
	return instr + pollInterval - 1, nil
}

// Run executes the program on the tree walker, from its main function.
// Given any other Config.Engine it returns an error. It never panics:
// range violations surface as a trapped Result, exhausted budgets as a
// *ResourceError, and internal invariant violations as a
// *guard.InternalError.
func Run(p *ir.Program, cfg Config) (res Result, err error) {
	if p == nil || len(p.Funcs) == 0 {
		return Result{}, errors.New("interp: no program")
	}
	if cfg.Engine != EngineTree {
		return Result{}, fmt.Errorf("interp: engine %v is not the tree walker (run bytecode engines through internal/vm)", cfg.Engine)
	}
	cfg = cfg.WithDefaults()
	m := &machine{
		prog:      p,
		cfg:       cfg,
		ivals:     make([]int64, p.NumVars),
		fvals:     make([]float64, p.NumVars),
		iarrs:     make([][]int64, p.NumArrays),
		farrs:     make([][]float64, p.NumArrays),
		active:    make([]bool, len(p.Funcs)),
		zeroLists: make([][]*ir.Var, len(p.Funcs)),
	}
	m.thr = m.cfg.FirstThreshold()
	// Frame scratch, hoisted out of the call path: the non-param locals
	// each function must zero on entry are computed once per run, not
	// once per call.
	for _, f := range p.Funcs {
		var zs []*ir.Var
		for _, v := range f.Locals {
			if !isParam(f, v) {
				zs = append(zs, v)
			}
		}
		m.zeroLists[f.Index] = zs
	}

	// Allocate all arrays up front under the cell budget.
	cells := int64(0)
	for _, a := range allArrays(p) {
		n := a.Len()
		if n < 0 {
			return Result{}, fmt.Errorf("interp: array %s has invalid extent", a.Name)
		}
		cells += n
		if cells > cfg.MaxArrayCells {
			return Result{}, &ResourceError{Resource: ResArrayCells, Limit: uint64(cfg.MaxArrayCells)}
		}
		if a.Elem == ir.Int {
			m.iarrs[a.ID] = make([]int64, n)
		} else {
			m.farrs[a.ID] = make([]float64, n)
		}
	}

	defer func() {
		if r := recover(); r != nil {
			if m.inCheck {
				// A check term faulted: its work is not charged.
				m.instr = m.checkBase
			}
			switch sig := r.(type) {
			case trapSignal:
				res = m.result()
				res.Trapped = true
				res.TrapNote = sig.note
				res.TrapClass = sig.class
				res.TrapPos = sig.pos
			case runtimeError:
				res = m.result()
				err = sig.err
			default:
				// An internal invariant violation (e.g. malformed IR the
				// verifier missed): contain it instead of crashing the
				// embedding process.
				res = m.result()
				err = &guard.InternalError{Stage: "run", Fn: m.curFn, Recovered: r}
			}
		}
	}()

	m.exec(p.Main())
	return m.result(), nil
}

// allArrays lists every array of the program (globals first), each once.
func allArrays(p *ir.Program) []*ir.Array {
	out := append([]*ir.Array(nil), p.GlobalArrays...)
	for _, f := range p.Funcs {
		out = append(out, f.Arrays...)
	}
	return out
}

type machine struct {
	prog  *ir.Program
	cfg   Config
	ivals []int64
	fvals []float64
	iarrs [][]int64
	farrs [][]float64
	instr uint64
	// thr is the count past which cost leaves its fast path: the
	// budget, or the next poll when that comes first.
	thr    uint64
	checks uint64
	// inCheck says a CheckStmt's terms are being evaluated, and
	// checkBase is the instruction count from before that check began.
	// Only Run's recover reads them, to put the count back when a term
	// faults.
	inCheck   bool
	checkBase uint64
	out       strings.Builder
	active    []bool      // call-active bit per Func.Index (recursion guard)
	zeroLists [][]*ir.Var // per Func.Index: non-param locals zeroed on entry
	curFn     string      // function currently executing, for error tags
}

func (m *machine) result() Result {
	return Result{Instructions: m.instr, Checks: m.checks, Output: m.out.String()}
}

func (m *machine) fail(err error) {
	panic(runtimeError{err})
}

// cost charges n instructions: one add and one compare against thr.
// Crossing thr means the budget is blown or a poll is due; costSlow
// tells them apart.
func (m *machine) cost(n uint64) {
	m.instr += n
	if m.instr > m.thr {
		m.costSlow()
	}
}

// costSlow takes the shared slow path (Config.Recharge) with the tree
// engine's chaos sites.
func (m *machine) costSlow() {
	thr, err := m.cfg.Recharge(m.instr, &treePoll, m.curFn)
	if err != nil {
		m.fail(err)
	}
	m.thr = thr
}

func (m *machine) exec(f *ir.Func) {
	if m.active[f.Index] {
		m.fail(fmt.Errorf("%w: %s", ErrRecursion, f.Name))
	}
	m.active[f.Index] = true
	prevFn := m.curFn
	m.curFn = f.Name
	// Cleanup happens at the Ret below, not in a defer: on a panic the
	// run is over anyway, and Run's recovery wants curFn to still name
	// the function that was executing.

	b := f.Entry()
	for {
		for _, s := range b.Stmts {
			m.execStmt(s)
		}
		switch t := b.Term.(type) {
		case *ir.Goto:
			m.cost(1)
			b = t.Target
		case *ir.If:
			cond := m.evalBool(t.Cond)
			m.cost(1)
			if cond {
				b = t.Then
			} else {
				b = t.Else
			}
		case *ir.Ret:
			m.cost(1)
			m.active[f.Index] = false
			m.curFn = prevFn
			return
		default:
			m.fail(fmt.Errorf("interp: block b%d of %s has no terminator", b.ID, f.Name))
		}
	}
}

func (m *machine) execStmt(s ir.Stmt) {
	switch s := s.(type) {
	case *ir.AssignStmt:
		if s.Dst.Type == ir.Int {
			m.ivals[s.Dst.ID] = m.evalInt(s.Src)
		} else {
			m.fvals[s.Dst.ID] = m.evalFloat(s.Src)
		}
		m.cost(1)

	case *ir.StoreStmt:
		off := m.elemOffset(s.Arr, s.Idx)
		if s.Arr.Elem == ir.Int {
			v := m.evalInt(s.Val)
			m.iarrs[s.Arr.ID][off] = v
		} else {
			v := m.evalFloat(s.Val)
			m.farrs[s.Arr.ID][off] = v
		}
		m.cost(1 + 2*uint64(len(s.Idx)-1))

	case *ir.CheckStmt:
		if s.Guard != nil {
			// The guard of a cond-check is an ordinary (1-instruction)
			// test; only a performed comparison counts as a range check.
			guardTrue := m.evalBool(s.Guard)
			m.cost(1)
			if !guardTrue {
				return
			}
		}
		m.checks++
		// Term evaluation is part of the check, which is counted
		// separately: with thr raised, cost stays on its fast path (no
		// budget exit, no poll), and the count is put back afterwards.
		thr := m.thr
		m.thr = math.MaxUint64
		m.inCheck, m.checkBase = true, m.instr
		lhs := int64(0)
		for _, t := range s.Terms {
			if v, ok := t.Atom.(*ir.VarRef); ok {
				lhs += t.Coef * m.ivals[v.Var.ID]
			} else {
				lhs += t.Coef * m.evalInt(t.Atom)
			}
		}
		m.instr, m.thr, m.inCheck = m.checkBase, thr, false
		if lhs > s.Const {
			panic(trapSignal{
				note:  fmt.Sprintf("%s failed (lhs=%d) [%s]", s.String(), lhs, s.Note),
				class: TrapCheck,
				pos:   s.SrcPos,
			})
		}

	case *ir.CallStmt:
		callee := s.Callee
		m.cost(2 + uint64(len(callee.Params)))
		// Evaluate arguments, then copy into parameters.
		for i, p := range callee.Params {
			if p.Type == ir.Int {
				m.ivals[p.ID] = m.evalInt(s.Args[i])
			} else {
				m.fvals[p.ID] = m.evalFloat(s.Args[i])
			}
		}
		// Zero the callee's non-param locals and local arrays, Fortran
		// SAVE-less semantics (the zero list is precomputed per run).
		for _, v := range m.zeroLists[callee.Index] {
			m.ivals[v.ID] = 0
			m.fvals[v.ID] = 0
		}
		for _, a := range callee.Arrays {
			if a.Elem == ir.Int {
				clearI(m.iarrs[a.ID])
			} else {
				clearF(m.farrs[a.ID])
			}
		}
		m.exec(callee)

	case *ir.PrintStmt:
		m.cost(1)
		if m.out.Len() >= m.cfg.MaxOutputBytes {
			for _, a := range s.Args { // still pay evaluation costs
				m.evalDiscard(a)
			}
			return
		}
		// Write fields directly (separator-joined, newline-terminated)
		// instead of allocating a per-print parts slice.
		for i, a := range s.Args {
			if i > 0 {
				m.out.WriteByte(' ')
			}
			if a.Type() == ir.Float {
				m.out.WriteString(strconv.FormatFloat(m.evalFloat(a), 'g', 10, 64))
			} else {
				m.out.WriteString(strconv.FormatInt(m.evalInt(a), 10))
			}
		}
		m.out.WriteByte('\n')

	case *ir.TrapStmt:
		panic(trapSignal{
			note:  fmt.Sprintf("compile-time range violation: %s", s.Note),
			class: TrapStatic,
			pos:   s.SrcPos,
		})

	default:
		m.fail(fmt.Errorf("interp: unknown statement %T", s))
	}
}

func isParam(f *ir.Func, v *ir.Var) bool {
	for _, p := range f.Params {
		if p == v {
			return true
		}
	}
	return false
}

func clearI(s []int64) {
	for i := range s {
		s[i] = 0
	}
}

func clearF(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// elemOffset computes the flat row-major offset of an element, charging
// subscript evaluation costs. Out-of-range subscripts abort execution
// with a runtime error: with naive checking enabled a CheckStmt always
// traps first, so reaching this error indicates a miscompiled program
// (or an intentionally unchecked build).
func (m *machine) elemOffset(a *ir.Array, idx []ir.Expr) int64 {
	off := int64(0)
	for k, e := range idx {
		var v int64
		switch x := e.(type) { // leaf subscripts inline
		case *ir.VarRef:
			m.cost(1)
			v = m.ivals[x.Var.ID]
		case *ir.ConstInt:
			v = x.V
		default:
			v = m.evalInt(x)
		}
		d := &a.Dims[k]
		if v < d.Lo || v > d.Hi {
			m.fail(SubscriptError(v, a.Name, d.Lo, d.Hi, k+1))
		}
		off = off*d.Size() + (v - d.Lo)
	}
	return off
}

// ---------------------------------------------------------------------------
// Expression evaluation

func (m *machine) evalDiscard(e ir.Expr) {
	if e.Type() == ir.Float {
		m.evalFloat(e)
	} else if e.Type() == ir.Int {
		m.evalInt(e)
	} else {
		m.evalBool(e)
	}
}

func (m *machine) evalInt(e ir.Expr) int64 {
	switch e := e.(type) {
	case *ir.ConstInt:
		return e.V
	case *ir.VarRef:
		m.cost(1)
		return m.ivals[e.Var.ID]
	case *ir.Load:
		off := m.elemOffset(e.Arr, e.Idx)
		m.cost(1 + 2*uint64(len(e.Idx)-1))
		return m.iarrs[e.Arr.ID][off]
	case *ir.Bin:
		// Leaf operands inline: the same charges in the same order.
		var l, r int64
		switch x := e.L.(type) {
		case *ir.VarRef:
			m.cost(1)
			l = m.ivals[x.Var.ID]
		case *ir.ConstInt:
			l = x.V
		default:
			l = m.evalInt(x)
		}
		switch x := e.R.(type) {
		case *ir.VarRef:
			m.cost(1)
			r = m.ivals[x.Var.ID]
		case *ir.ConstInt:
			r = x.V
		default:
			r = m.evalInt(x)
		}
		m.cost(1)
		switch e.Op {
		case ir.OpAdd:
			return l + r
		case ir.OpSub:
			return l - r
		case ir.OpMul:
			return l * r
		case ir.OpDiv:
			if r == 0 {
				m.fail(ErrDivZero)
			}
			return l / r
		}
	case *ir.Un:
		if e.Op == ir.OpNeg {
			v := m.evalInt(e.X)
			m.cost(1)
			return -v
		}
	case *ir.Call:
		return m.evalIntCall(e)
	}
	m.fail(fmt.Errorf("interp: bad int expression %s", ir.ExprString(e)))
	return 0
}

func (m *machine) evalIntCall(e *ir.Call) int64 {
	m.cost(1)
	switch e.Fn {
	case ir.IntrMod:
		l := m.evalInt(e.Args[0])
		r := m.evalInt(e.Args[1])
		if r == 0 {
			m.fail(ErrModZero)
		}
		return l % r
	case ir.IntrMin:
		v := m.evalInt(e.Args[0])
		for _, a := range e.Args[1:] {
			if w := m.evalInt(a); w < v {
				v = w
			}
		}
		return v
	case ir.IntrMax:
		v := m.evalInt(e.Args[0])
		for _, a := range e.Args[1:] {
			if w := m.evalInt(a); w > v {
				v = w
			}
		}
		return v
	case ir.IntrAbs:
		v := m.evalInt(e.Args[0])
		if v < 0 {
			return -v
		}
		return v
	case ir.IntrInt:
		return int64(m.evalFloat(e.Args[0]))
	}
	m.fail(fmt.Errorf("interp: intrinsic %s does not yield int", e.Fn))
	return 0
}

func (m *machine) evalFloat(e ir.Expr) float64 {
	switch e := e.(type) {
	case *ir.ConstFloat:
		return e.V
	case *ir.ConstInt:
		return float64(e.V)
	case *ir.VarRef:
		m.cost(1)
		return m.fvals[e.Var.ID]
	case *ir.Load:
		off := m.elemOffset(e.Arr, e.Idx)
		m.cost(1 + 2*uint64(len(e.Idx)-1))
		return m.farrs[e.Arr.ID][off]
	case *ir.Bin:
		var l, r float64
		switch x := e.L.(type) {
		case *ir.VarRef:
			m.cost(1)
			l = m.fvals[x.Var.ID]
		case *ir.ConstFloat:
			l = x.V
		default:
			l = m.evalFloat(x)
		}
		switch x := e.R.(type) {
		case *ir.VarRef:
			m.cost(1)
			r = m.fvals[x.Var.ID]
		case *ir.ConstFloat:
			r = x.V
		default:
			r = m.evalFloat(x)
		}
		m.cost(1)
		switch e.Op {
		case ir.OpAdd:
			return l + r
		case ir.OpSub:
			return l - r
		case ir.OpMul:
			return l * r
		case ir.OpDiv:
			return l / r
		}
	case *ir.Un:
		if e.Op == ir.OpNeg {
			v := m.evalFloat(e.X)
			m.cost(1)
			return -v
		}
	case *ir.Call:
		return m.evalFloatCall(e)
	}
	m.fail(fmt.Errorf("interp: bad float expression %s", ir.ExprString(e)))
	return 0
}

func (m *machine) evalFloatCall(e *ir.Call) float64 {
	m.cost(1)
	switch e.Fn {
	case ir.IntrSqrt:
		return math.Sqrt(m.evalFloat(e.Args[0]))
	case ir.IntrFloat:
		if e.Args[0].Type() == ir.Int {
			return float64(m.evalInt(e.Args[0]))
		}
		return m.evalFloat(e.Args[0])
	case ir.IntrAbs:
		return math.Abs(m.evalFloat(e.Args[0]))
	case ir.IntrMin:
		v := m.evalFloat(e.Args[0])
		for _, a := range e.Args[1:] {
			v = math.Min(v, m.evalFloat(a))
		}
		return v
	case ir.IntrMax:
		v := m.evalFloat(e.Args[0])
		for _, a := range e.Args[1:] {
			v = math.Max(v, m.evalFloat(a))
		}
		return v
	case ir.IntrMod:
		l := m.evalFloat(e.Args[0])
		r := m.evalFloat(e.Args[1])
		return math.Mod(l, r)
	}
	m.fail(fmt.Errorf("interp: intrinsic %s does not yield float", e.Fn))
	return 0
}

func (m *machine) evalBool(e ir.Expr) bool {
	switch e := e.(type) {
	case *ir.Bin:
		switch e.Op {
		case ir.OpAnd:
			l := m.evalBool(e.L)
			r := m.evalBool(e.R)
			m.cost(1)
			return l && r
		case ir.OpOr:
			l := m.evalBool(e.L)
			r := m.evalBool(e.R)
			m.cost(1)
			return l || r
		}
		if e.Op.IsComparison() {
			if e.L.Type() == ir.Float || e.R.Type() == ir.Float {
				l := m.evalFloat(e.L)
				r := m.evalFloat(e.R)
				m.cost(1)
				return cmpF(e.Op, l, r)
			}
			var l, r int64
			switch x := e.L.(type) {
			case *ir.VarRef:
				m.cost(1)
				l = m.ivals[x.Var.ID]
			case *ir.ConstInt:
				l = x.V
			default:
				l = m.evalInt(x)
			}
			switch x := e.R.(type) {
			case *ir.VarRef:
				m.cost(1)
				r = m.ivals[x.Var.ID]
			case *ir.ConstInt:
				r = x.V
			default:
				r = m.evalInt(x)
			}
			m.cost(1)
			return cmpI(e.Op, l, r)
		}
	case *ir.Un:
		if e.Op == ir.OpNot {
			v := m.evalBool(e.X)
			m.cost(1)
			return !v
		}
	}
	m.fail(fmt.Errorf("interp: bad bool expression %s", ir.ExprString(e)))
	return false
}

func cmpI(op ir.Op, l, r int64) bool {
	switch op {
	case ir.OpEq:
		return l == r
	case ir.OpNe:
		return l != r
	case ir.OpLt:
		return l < r
	case ir.OpLe:
		return l <= r
	case ir.OpGt:
		return l > r
	case ir.OpGe:
		return l >= r
	}
	return false
}

func cmpF(op ir.Op, l, r float64) bool {
	switch op {
	case ir.OpEq:
		return l == r
	case ir.OpNe:
		return l != r
	case ir.OpLt:
		return l < r
	case ir.OpLe:
		return l <= r
	case ir.OpGt:
		return l > r
	case ir.OpGe:
		return l >= r
	}
	return false
}
