// Package ir defines the control-flow-graph intermediate representation of
// the Nascent-Go compiler.
//
// A Program holds one Func per program unit. Each Func is a graph of basic
// Blocks containing statements and ending in a terminator. Expressions are
// kept as trees (not three-address code): the range-check machinery of the
// paper operates on whole subscript expressions, and trees keep their
// canonical linear decomposition straightforward.
//
// Array subscript range checks are first-class statements (CheckStmt) in
// the canonical form of Kolte & Wolfe §2.2:
//
//	Check( Σ coef·atom ≤ K )
//
// where atoms are scalar variables or opaque non-affine subexpressions and
// all constants are folded into K. A Cond-check (paper §3.3, Figure 6) is a
// CheckStmt with a non-nil Guard.
package ir

import "nascent/internal/source"

// Type is the runtime type of an IR value.
type Type int

// IR value types.
const (
	Int Type = iota
	Float
	Bool // condition values; never stored in variables
)

func (t Type) String() string {
	switch t {
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	}
	return "?"
}

// Var is a scalar variable (global, local, parameter, or compiler temp).
type Var struct {
	Name   string
	Type   Type
	ID     int  // dense program-wide index, used by dataflow bit/key sets
	Global bool // declared in the main program, shared across funcs
	Temp   bool // compiler-generated
}

func (v *Var) String() string { return v.Name }

// Bounds is the declared range of one array dimension.
type Bounds struct {
	Lo, Hi int64
}

// Size returns the element count of the dimension.
func (b Bounds) Size() int64 { return b.Hi - b.Lo + 1 }

// Array is a declared array.
type Array struct {
	Name   string
	Elem   Type
	Dims   []Bounds
	ID     int // dense program-wide index
	Global bool
}

func (a *Array) String() string { return a.Name }

// Len returns the total element count.
func (a *Array) Len() int64 {
	n := int64(1)
	for _, d := range a.Dims {
		n *= d.Size()
	}
	return n
}

// Program is a whole compiled MF program.
type Program struct {
	Funcs        []*Func // Funcs[0] is main
	Globals      []*Var
	GlobalArrays []*Array
	funcByName   map[string]*Func
	NumVars      int // total Var IDs allocated (globals + all locals)
	NumArrays    int
}

// Main returns the entry function.
func (p *Program) Main() *Func { return p.Funcs[0] }

// FuncByName returns the function with the given name, or nil.
func (p *Program) FuncByName(name string) *Func { return p.funcByName[name] }

// RegisterFunc appends f to the program and indexes it by name.
func (p *Program) RegisterFunc(f *Func) {
	if p.funcByName == nil {
		p.funcByName = make(map[string]*Func)
	}
	f.Index = len(p.Funcs)
	p.Funcs = append(p.Funcs, f)
	p.funcByName[f.Name] = f
	f.Program = p
}

// NewVar allocates a fresh Var with a program-unique ID.
func (p *Program) NewVar(name string, t Type, global, temp bool) *Var {
	v := &Var{Name: name, Type: t, ID: p.NumVars, Global: global, Temp: temp}
	p.NumVars++
	if global {
		p.Globals = append(p.Globals, v)
	}
	return v
}

// NewArray allocates a fresh Array with a program-unique ID.
func (p *Program) NewArray(name string, elem Type, dims []Bounds, global bool) *Array {
	a := &Array{Name: name, Elem: elem, Dims: dims, ID: p.NumArrays, Global: global}
	p.NumArrays++
	if global {
		p.GlobalArrays = append(p.GlobalArrays, a)
	}
	return a
}

// Func is one program unit lowered to a CFG.
type Func struct {
	Name    string
	Index   int // dense program-wide index, assigned by RegisterFunc
	IsMain  bool
	Params  []*Var // subset of Locals, in declaration order
	Locals  []*Var // all non-global vars used by the func (incl. params, temps)
	Arrays  []*Array
	Blocks  []*Block // Blocks[0] is the entry; order is creation order
	Program *Program
	DoLoops []*DoLoopInfo // counted loops, in lowering order (outer before inner)

	nextBlockID int
	origin      *Func // the function a Fork copied this one from, if any
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewBlock appends a fresh empty block to the function.
func (f *Func) NewBlock(label string) *Block {
	b := &Block{ID: f.nextBlockID, Label: label, Func: f}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewLocal allocates a function-local variable.
func (f *Func) NewLocal(name string, t Type) *Var {
	v := f.Program.NewVar(name, t, false, false)
	f.Locals = append(f.Locals, v)
	return v
}

// NewTemp allocates a compiler temporary.
func (f *Func) NewTemp(name string, t Type) *Var {
	v := f.Program.NewVar(name, t, false, true)
	f.Locals = append(f.Locals, v)
	return v
}

// Block is a basic block.
type Block struct {
	ID    int
	Label string
	Func  *Func
	Stmts []Stmt
	Term  Terminator
	Preds []*Block
}

// Succs returns the successor blocks as determined by the terminator.
func (b *Block) Succs() []*Block {
	switch t := b.Term.(type) {
	case *Goto:
		return []*Block{t.Target}
	case *If:
		return []*Block{t.Then, t.Else}
	case *Ret:
		return nil
	}
	return nil
}

// AddPred records p as a predecessor of b (no duplicates).
func (b *Block) AddPred(p *Block) {
	for _, q := range b.Preds {
		if q == p {
			return
		}
	}
	b.Preds = append(b.Preds, p)
}

// RecomputePreds rebuilds the predecessor lists of every block in f from
// terminators, dropping unreachable predecessors.
func (f *Func) RecomputePreds() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			s.AddPred(b)
		}
	}
}

// ---------------------------------------------------------------------------
// Statements

// Stmt is any non-terminator statement.
type Stmt interface {
	Pos() source.Pos
	stmtNode()
}

// AssignStmt stores the value of Src into scalar Dst.
type AssignStmt struct {
	Dst    *Var
	Src    Expr
	SrcPos source.Pos
}

// StoreStmt stores Val into Arr at the given subscripts.
type StoreStmt struct {
	Arr    *Array
	Idx    []Expr
	Val    Expr
	SrcPos source.Pos
}

// CheckTerm is one coef·atom product of a canonical range check.
type CheckTerm struct {
	Coef int64
	Atom Expr // scalar VarRef or an opaque non-affine subexpression
}

// CheckStmt is a canonical range check: trap unless Σ Terms ≤ Const.
// Terms are sorted by atom key and contain no zero coefficients; an empty
// Terms slice is a compile-time check. If Guard is non-nil, the check is a
// Cond-check: it is performed only when Guard evaluates true.
type CheckStmt struct {
	Terms  []CheckTerm
	Const  int64
	Guard  Expr   // nil for an ordinary check
	Note   string // human-readable origin, e.g. "a(i) dim 1 upper"
	SrcPos source.Pos
}

// CallStmt invokes a subroutine with by-value arguments.
type CallStmt struct {
	Callee *Func
	Args   []Expr
	SrcPos source.Pos
}

// PrintStmt appends formatted values to the program output.
type PrintStmt struct {
	Args   []Expr
	SrcPos source.Pos
}

// TrapStmt unconditionally raises a range violation when executed. The
// optimizer replaces compile-time-false checks with traps (paper step 5).
type TrapStmt struct {
	Note   string
	SrcPos source.Pos
}

func (s *AssignStmt) Pos() source.Pos { return s.SrcPos }
func (s *StoreStmt) Pos() source.Pos  { return s.SrcPos }
func (s *CheckStmt) Pos() source.Pos  { return s.SrcPos }
func (s *CallStmt) Pos() source.Pos   { return s.SrcPos }
func (s *PrintStmt) Pos() source.Pos  { return s.SrcPos }
func (s *TrapStmt) Pos() source.Pos   { return s.SrcPos }

func (*AssignStmt) stmtNode() {}
func (*StoreStmt) stmtNode()  {}
func (*CheckStmt) stmtNode()  {}
func (*CallStmt) stmtNode()   {}
func (*PrintStmt) stmtNode()  {}
func (*TrapStmt) stmtNode()   {}

// ---------------------------------------------------------------------------
// Terminators

// Terminator ends a basic block.
type Terminator interface {
	termNode()
}

// Goto is an unconditional jump.
type Goto struct {
	Target *Block
}

// If branches on a Bool-typed condition: Then when true, Else when false.
type If struct {
	Cond Expr
	Then *Block
	Else *Block
}

// Ret returns from the function.
type Ret struct{}

func (*Goto) termNode() {}
func (*If) termNode()   {}
func (*Ret) termNode()  {}
