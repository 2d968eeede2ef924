// Package ast defines the abstract syntax tree for MF programs.
//
// An MF source file contains one program unit followed by any number of
// subroutines. Arrays are declared with constant (or parameter-constant)
// bounds per dimension; subscript range checks are later generated from
// these declarations during IR lowering.
package ast

import "nascent/internal/source"

// Node is the interface implemented by all AST nodes.
type Node interface {
	Pos() source.Pos
}

// ---------------------------------------------------------------------------
// Program structure

// File is a parsed MF source file.
type File struct {
	Name  string // file name for diagnostics
	Units []*Unit
}

// UnitKind distinguishes the main program from subroutines.
type UnitKind int

const (
	// ProgramUnit is the main program.
	ProgramUnit UnitKind = iota
	// SubroutineUnit is a callable subroutine.
	SubroutineUnit
)

// Unit is one program unit: the main program or a subroutine.
type Unit struct {
	Kind    UnitKind
	Name    string
	Params  []string // subroutine formal parameter names (by value)
	Decls   []*Decl
	Consts  []*ParamConst // named compile-time constants
	Body    []Stmt
	NamePos source.Pos
}

// Pos returns the position of the unit header.
func (u *Unit) Pos() source.Pos { return u.NamePos }

// Type is an MF scalar element type.
type Type int

const (
	// Unknown means "use implicit typing" (i–n integer, else real).
	Unknown Type = iota
	// Integer is a 64-bit signed integer.
	Integer
	// Real is a float64.
	Real
)

func (t Type) String() string {
	switch t {
	case Integer:
		return "integer"
	case Real:
		return "real"
	}
	return "unknown"
}

// Decl declares one or more scalars or arrays of a given element type.
type Decl struct {
	Type    Type
	Items   []*DeclItem
	TypePos source.Pos
}

// Pos returns the position of the type keyword.
func (d *Decl) Pos() source.Pos { return d.TypePos }

// DeclItem is one declared name, possibly with array dimensions.
type DeclItem struct {
	Name    string
	Dims    []Bounds // empty for scalars
	NamePos source.Pos
}

// Pos returns the position of the declared name.
func (d *DeclItem) Pos() source.Pos { return d.NamePos }

// Bounds gives the declared lower and upper bound expressions of one array
// dimension. Lo may be nil, meaning the Fortran default lower bound of 1.
type Bounds struct {
	Lo Expr // nil => 1
	Hi Expr
}

// ParamConst is a named compile-time integer constant:
//
//	parameter n = 100
type ParamConst struct {
	Name    string
	Value   Expr
	NamePos source.Pos
}

// Pos returns the position of the constant name.
func (p *ParamConst) Pos() source.Pos { return p.NamePos }

// ---------------------------------------------------------------------------
// Statements

// Stmt is the interface implemented by all statement nodes.
type Stmt interface {
	Node
	stmt()
}

// AssignStmt assigns Value to a scalar variable or an array element.
type AssignStmt struct {
	Name    string
	Indexes []Expr // nil for scalar assignment
	Value   Expr
	NamePos source.Pos
}

// IfStmt is a (possibly one-armed) conditional. Elifs are lowered by the
// parser into nested IfStmts, so Else holds the final alternative.
type IfStmt struct {
	Cond  Expr
	Then  []Stmt
	Else  []Stmt // may be nil
	IfPos source.Pos
}

// DoStmt is a counted loop: do Var = Lo, Hi [, Step].
type DoStmt struct {
	Var   string
	Lo    Expr
	Hi    Expr
	Step  Expr // nil => 1
	Body  []Stmt
	DoPos source.Pos
}

// WhileStmt is a pre-tested loop.
type WhileStmt struct {
	Cond     Expr
	Body     []Stmt
	WhilePos source.Pos
}

// CallStmt invokes a subroutine with by-value scalar arguments.
type CallStmt struct {
	Name    string
	Args    []Expr
	CallPos source.Pos
}

// PrintStmt appends the values of Args to the program output.
type PrintStmt struct {
	Args     []Expr
	PrintPos source.Pos
}

// ReturnStmt returns from the enclosing unit.
type ReturnStmt struct {
	RetPos source.Pos
}

func (s *AssignStmt) Pos() source.Pos { return s.NamePos }
func (s *IfStmt) Pos() source.Pos     { return s.IfPos }
func (s *DoStmt) Pos() source.Pos     { return s.DoPos }
func (s *WhileStmt) Pos() source.Pos  { return s.WhilePos }
func (s *CallStmt) Pos() source.Pos   { return s.CallPos }
func (s *PrintStmt) Pos() source.Pos  { return s.PrintPos }
func (s *ReturnStmt) Pos() source.Pos { return s.RetPos }

func (*AssignStmt) stmt() {}
func (*IfStmt) stmt()     {}
func (*DoStmt) stmt()     {}
func (*WhileStmt) stmt()  {}
func (*CallStmt) stmt()   {}
func (*PrintStmt) stmt()  {}
func (*ReturnStmt) stmt() {}

// ---------------------------------------------------------------------------
// Expressions

// Expr is the interface implemented by all expression nodes.
type Expr interface {
	Node
	expr()
}

// Op enumerates binary and unary operators.
type Op int

// Operators. Neg and Not are unary; the rest binary.
const (
	Add Op = iota
	Sub
	Mul
	Div
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
	And
	Or
	Neg
	Not
)

var opNames = [...]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/",
	Eq: "==", Ne: "/=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=",
	And: "and", Or: "or", Neg: "-", Not: "not",
}

func (o Op) String() string { return opNames[o] }

// IsComparison reports whether o is a relational operator.
func (o Op) IsComparison() bool { return o >= Eq && o <= Ge }

// IsLogical reports whether o is a logical connective.
func (o Op) IsLogical() bool { return o == And || o == Or || o == Not }

// IntLit is an integer literal.
type IntLit struct {
	Value  int64
	LitPos source.Pos
}

// RealLit is a real (float64) literal.
type RealLit struct {
	Value  float64
	LitPos source.Pos
}

// Name refers to a scalar variable or a named parameter constant.
type Name struct {
	Ident   string
	NamePos source.Pos
}

// Index is an array element reference or an intrinsic call; the semantic
// analyzer disambiguates via the symbol table and sets Intrinsic.
type Index struct {
	Name      string
	Args      []Expr
	Intrinsic bool // set by sem: this is an intrinsic function call
	NamePos   source.Pos
}

// Binary applies a binary operator. StartPos is L's position, recorded
// by the parser: semantic checking asks every operand for its position,
// so deriving it by walking the left spine would make checking a long
// left-associated sum quadratic.
type Binary struct {
	Op       Op
	L, R     Expr
	StartPos source.Pos
}

// Unary applies Neg or Not.
type Unary struct {
	Op    Op
	X     Expr
	OpPos source.Pos
}

func (e *IntLit) Pos() source.Pos  { return e.LitPos }
func (e *RealLit) Pos() source.Pos { return e.LitPos }
func (e *Name) Pos() source.Pos    { return e.NamePos }
func (e *Index) Pos() source.Pos   { return e.NamePos }
func (e *Binary) Pos() source.Pos  { return e.StartPos }
func (e *Unary) Pos() source.Pos   { return e.OpPos }

func (*IntLit) expr()  {}
func (*RealLit) expr() {}
func (*Name) expr()    {}
func (*Index) expr()   {}
func (*Binary) expr()  {}
func (*Unary) expr()   {}
