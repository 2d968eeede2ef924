package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is an IR expression tree node.
type Expr interface {
	Type() Type
	exprNode()
}

// ConstInt is an integer constant.
type ConstInt struct {
	V int64
}

// ConstFloat is a floating constant.
type ConstFloat struct {
	V float64
}

// VarRef reads a scalar variable.
type VarRef struct {
	Var *Var
}

// Load reads an array element.
type Load struct {
	Arr *Array
	Idx []Expr
}

// Op enumerates IR operators.
type Op int

// IR operators. Arithmetic ops apply to Int or Float operands of matching
// type; comparisons yield Bool; And/Or/Not operate on Bool.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNeg
	OpNot
)

var opStrings = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEq: "==", OpNe: "/=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "and", OpOr: "or", OpNeg: "-", OpNot: "not",
}

func (o Op) String() string { return opStrings[o] }

// IsComparison reports whether o is a relational operator.
func (o Op) IsComparison() bool { return o >= OpEq && o <= OpGe }

// Bin applies a binary operator. Typ caches the result type.
type Bin struct {
	Op   Op
	L, R Expr
	Typ  Type
}

// Un applies OpNeg or OpNot.
type Un struct {
	Op  Op
	X   Expr
	Typ Type
}

// Intrinsic identifies an MF intrinsic function.
type Intrinsic int

// Intrinsic functions.
const (
	IntrMod Intrinsic = iota
	IntrMin
	IntrMax
	IntrAbs
	IntrSqrt
	IntrInt   // truncate to integer
	IntrFloat // convert to real
)

var intrNames = [...]string{
	IntrMod: "mod", IntrMin: "min", IntrMax: "max", IntrAbs: "abs",
	IntrSqrt: "sqrt", IntrInt: "int", IntrFloat: "float",
}

func (i Intrinsic) String() string { return intrNames[i] }

// IntrinsicByName maps MF intrinsic names to their IR codes.
var IntrinsicByName = map[string]Intrinsic{
	"mod": IntrMod, "min": IntrMin, "max": IntrMax, "abs": IntrAbs,
	"sqrt": IntrSqrt, "int": IntrInt, "float": IntrFloat,
}

// Call evaluates an intrinsic function.
type Call struct {
	Fn   Intrinsic
	Args []Expr
	Typ  Type
}

func (e *ConstInt) Type() Type   { return Int }
func (e *ConstFloat) Type() Type { return Float }
func (e *VarRef) Type() Type     { return e.Var.Type }
func (e *Load) Type() Type       { return e.Arr.Elem }
func (e *Bin) Type() Type        { return e.Typ }
func (e *Un) Type() Type         { return e.Typ }
func (e *Call) Type() Type       { return e.Typ }

func (*ConstInt) exprNode()   {}
func (*ConstFloat) exprNode() {}
func (*VarRef) exprNode()     {}
func (*Load) exprNode()       {}
func (*Bin) exprNode()        {}
func (*Un) exprNode()         {}
func (*Call) exprNode()       {}

// ---------------------------------------------------------------------------
// Expression utilities

// ExprString renders an expression for IR dumps and diagnostics.
func ExprString(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e Expr) {
	switch e := e.(type) {
	case *ConstInt:
		fmt.Fprintf(b, "%d", e.V)
	case *ConstFloat:
		b.WriteString(strconv.FormatFloat(e.V, 'g', -1, 64))
	case *VarRef:
		b.WriteString(e.Var.Name)
	case *Load:
		b.WriteString(e.Arr.Name)
		b.WriteByte('(')
		for i, ix := range e.Idx {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, ix)
		}
		b.WriteByte(')')
	case *Bin:
		b.WriteByte('(')
		writeExpr(b, e.L)
		b.WriteByte(' ')
		b.WriteString(e.Op.String())
		b.WriteByte(' ')
		writeExpr(b, e.R)
		b.WriteByte(')')
	case *Un:
		b.WriteByte('(')
		b.WriteString(e.Op.String())
		if e.Op == OpNot {
			b.WriteByte(' ')
		}
		writeExpr(b, e.X)
		b.WriteByte(')')
	case *Call:
		b.WriteString(e.Fn.String())
		b.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, a)
		}
		b.WriteByte(')')
	default:
		fmt.Fprintf(b, "<%T>", e)
	}
}

// Key returns a structural key for e: two expressions with equal keys are
// structurally identical (same variables, arrays, operators, constants).
// Keys define atom identity in canonical checks and expression equivalence
// classes for PRE.
func Key(e Expr) string {
	var b strings.Builder
	writeKey(&b, e)
	return b.String()
}

func writeKey(b *strings.Builder, e Expr) {
	switch e := e.(type) {
	case *ConstInt:
		b.WriteByte('#')
		writeInt(b, e.V)
	case *ConstFloat:
		b.WriteString("#f")
		b.WriteString(strconv.FormatFloat(e.V, 'b', -1, 64))
	case *VarRef:
		b.WriteByte('v')
		writeInt(b, int64(e.Var.ID))
	case *Load:
		b.WriteByte('a')
		writeInt(b, int64(e.Arr.ID))
		b.WriteByte('[')
		for i, ix := range e.Idx {
			if i > 0 {
				b.WriteByte(',')
			}
			writeKey(b, ix)
		}
		b.WriteByte(']')
	case *Bin:
		b.WriteByte('(')
		writeInt(b, int64(e.Op))
		b.WriteByte(' ')
		writeKey(b, e.L)
		b.WriteByte(' ')
		writeKey(b, e.R)
		b.WriteByte(')')
	case *Un:
		b.WriteString("(u")
		writeInt(b, int64(e.Op))
		b.WriteByte(' ')
		writeKey(b, e.X)
		b.WriteByte(')')
	case *Call:
		b.WriteString("(c")
		writeInt(b, int64(e.Fn))
		for _, a := range e.Args {
			b.WriteByte(' ')
			writeKey(b, a)
		}
		b.WriteByte(')')
	default:
		fmt.Fprintf(b, "<%T>", e)
	}
}

// writeInt appends the decimal form of v.
func writeInt(b *strings.Builder, v int64) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], v, 10))
}

// WalkExpr visits e and all subexpressions pre-order.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch e := e.(type) {
	case *Load:
		for _, ix := range e.Idx {
			WalkExpr(ix, fn)
		}
	case *Bin:
		WalkExpr(e.L, fn)
		WalkExpr(e.R, fn)
	case *Un:
		WalkExpr(e.X, fn)
	case *Call:
		for _, a := range e.Args {
			WalkExpr(a, fn)
		}
	}
}

// VarsUsed appends to set the IDs of all scalar variables read by e.
func VarsUsed(e Expr, set map[int]bool) {
	WalkExpr(e, func(x Expr) {
		if v, ok := x.(*VarRef); ok {
			set[v.Var.ID] = true
		}
	})
}

// ArraysUsed appends to set the IDs of all arrays loaded by e.
func ArraysUsed(e Expr, set map[int]bool) {
	WalkExpr(e, func(x Expr) {
		if l, ok := x.(*Load); ok {
			set[l.Arr.ID] = true
		}
	})
}

// CloneStmt returns a deep copy of s (expression nodes copied, Var/Array
// identities shared).
func CloneStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *AssignStmt:
		return &AssignStmt{Dst: s.Dst, Src: CloneExpr(s.Src), SrcPos: s.SrcPos}
	case *StoreStmt:
		c := &StoreStmt{Arr: s.Arr, Val: CloneExpr(s.Val), SrcPos: s.SrcPos}
		c.Idx = make([]Expr, len(s.Idx))
		for i, ix := range s.Idx {
			c.Idx[i] = CloneExpr(ix)
		}
		return c
	case *CheckStmt:
		return s.CloneCheck()
	case *CallStmt:
		c := &CallStmt{Callee: s.Callee, SrcPos: s.SrcPos}
		c.Args = make([]Expr, len(s.Args))
		for i, a := range s.Args {
			c.Args[i] = CloneExpr(a)
		}
		return c
	case *PrintStmt:
		c := &PrintStmt{SrcPos: s.SrcPos}
		c.Args = make([]Expr, len(s.Args))
		for i, a := range s.Args {
			c.Args[i] = CloneExpr(a)
		}
		return c
	case *TrapStmt:
		return &TrapStmt{Note: s.Note, SrcPos: s.SrcPos}
	}
	return s
}

// CloneExpr returns a deep copy of e. Var and Array pointers are shared
// (they are program-level identities), node structure is copied.
func CloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case *ConstInt:
		c := *e
		return &c
	case *ConstFloat:
		c := *e
		return &c
	case *VarRef:
		c := *e
		return &c
	case *Load:
		c := &Load{Arr: e.Arr, Idx: make([]Expr, len(e.Idx))}
		for i, ix := range e.Idx {
			c.Idx[i] = CloneExpr(ix)
		}
		return c
	case *Bin:
		return &Bin{Op: e.Op, L: CloneExpr(e.L), R: CloneExpr(e.R), Typ: e.Typ}
	case *Un:
		return &Un{Op: e.Op, X: CloneExpr(e.X), Typ: e.Typ}
	case *Call:
		c := &Call{Fn: e.Fn, Typ: e.Typ, Args: make([]Expr, len(e.Args))}
		for i, a := range e.Args {
			c.Args[i] = CloneExpr(a)
		}
		return c
	}
	return e
}
