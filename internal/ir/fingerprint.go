package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"nascent/internal/source"
)

// Fingerprint returns a SHA-256 content hash of everything an execution
// engine reads from p: variable and array identities, names, types and
// dimensions; every function, block, statement, expression and
// terminator, including check notes and source positions (they surface
// in trap results); and the DoLoops metadata the bytecode compiler
// reads. Two programs with equal fingerprints produce identical results
// under every engine and limit set, so a run of one may stand for a run
// of the other.
//
// Derived and back-pointer fields (Block.Preds, Block.Func,
// Func.Program, Func.nextBlockID, the name index) are left out: they
// are recomputed from, or point back into, what is hashed. The
// fingerprint tests pin that every other field is covered.
//
// The encoding is a stream of varints. Var, Array and Func pointers are
// encoded by identity — a Var or Array in full at its first occurrence
// and by back-reference afterwards — and blocks by their index in the
// enclosing function, so sharing is preserved exactly.
func (p *Program) Fingerprint() [sha256.Size]byte {
	e := fpEncoder{
		h:      sha256.New(),
		buf:    make([]byte, 0, fpFlush+fpSlack),
		vars:   newFpIDs[Var](p.NumVars),
		arrays: newFpIDs[Array](p.NumArrays),
	}
	e.program(p)
	e.flush()
	var sum [sha256.Size]byte
	e.h.Sum(sum[:0])
	return sum
}

// fpFlush is the buffered byte count at which the encoder feeds the
// hash. The buffer is allocated once with fpSlack bytes to spare, room
// for the varint that crosses the threshold; only a long string grows
// it. The chunking does not change the hash.
const (
	fpFlush = 512
	fpSlack = 64
)

type fpEncoder struct {
	h      hash.Hash
	buf    []byte
	vars   fpIDs[Var]   // by Var.ID: order of first occurrence
	arrays fpIDs[Array] // by Array.ID: order of first occurrence
	funcs  []*Func
	blocks fpIDs[Block] // by Block.ID: index in the function being encoded
}

// fpIDs numbers pointers by a dense ID field through a slice: slot id
// holds the pointer seen with that ID and its number. A pointer whose ID
// is out of range, or shares its ID with another pointer already
// numbered, goes to a map instead, so numbering stays by identity.
type fpIDs[T any] struct {
	ptr   []*T
	num   []int32
	other map[*T]int
	n     int // numbers handed out
}

func newFpIDs[T any](size int) fpIDs[T] {
	return fpIDs[T]{ptr: make([]*T, size), num: make([]int32, size)}
}

// lookup returns x's number, or -1 when x has none yet.
func (ids *fpIDs[T]) lookup(x *T, id int) int {
	if id >= 0 && id < len(ids.ptr) && ids.ptr[id] == x {
		return int(ids.num[id])
	}
	if n, ok := ids.other[x]; ok {
		return n
	}
	return -1
}

// assign gives x the number n.
func (ids *fpIDs[T]) assign(x *T, id, n int) {
	if id >= 0 && id < len(ids.ptr) && ids.ptr[id] == nil {
		ids.ptr[id], ids.num[id] = x, int32(n)
		return
	}
	if ids.other == nil {
		ids.other = make(map[*T]int)
	}
	ids.other[x] = n
}

// next numbers x in order of first occurrence, returning its number
// and whether x was new.
func (ids *fpIDs[T]) next(x *T, id int) (n int, fresh bool) {
	if n := ids.lookup(x, id); n >= 0 {
		return n, false
	}
	n = ids.n
	ids.n++
	ids.assign(x, id, n)
	return n, true
}

func (e *fpEncoder) flush() {
	e.h.Write(e.buf)
	e.buf = e.buf[:0]
}

func (e *fpEncoder) uint(x uint64) {
	e.buf = binary.AppendUvarint(e.buf, x)
	if len(e.buf) >= fpFlush {
		e.flush()
	}
}

func (e *fpEncoder) int(x int64) {
	e.buf = binary.AppendVarint(e.buf, x)
	if len(e.buf) >= fpFlush {
		e.flush()
	}
}

func (e *fpEncoder) count(n int) { e.uint(uint64(n)) }

func (e *fpEncoder) bool(b bool) {
	if b {
		e.uint(1)
	} else {
		e.uint(0)
	}
}

func (e *fpEncoder) str(s string) {
	e.count(len(s))
	e.buf = append(e.buf, s...)
	if len(e.buf) >= fpFlush {
		e.flush()
	}
}

func (e *fpEncoder) pos(p source.Pos) {
	e.int(int64(p.Line))
	e.int(int64(p.Col))
}

func (e *fpEncoder) program(p *Program) {
	e.funcs = p.Funcs
	e.int(int64(p.NumVars))
	e.int(int64(p.NumArrays))
	e.count(len(p.Globals))
	for _, v := range p.Globals {
		e.varRef(v)
	}
	e.count(len(p.GlobalArrays))
	for _, a := range p.GlobalArrays {
		e.arrayRef(a)
	}
	e.count(len(p.Funcs))
	for _, f := range p.Funcs {
		e.fn(f)
	}
}

// varRef encodes v by identity: 0 for nil, 1 plus the full definition
// at its first occurrence, 2+n for the n-th distinct Var seen before.
func (e *fpEncoder) varRef(v *Var) {
	if v == nil {
		e.uint(0)
		return
	}
	if n, fresh := e.vars.next(v, v.ID); !fresh {
		e.uint(uint64(2 + n))
		return
	}
	e.uint(1)
	e.str(v.Name)
	e.int(int64(v.Type))
	e.int(int64(v.ID))
	e.bool(v.Global)
	e.bool(v.Temp)
}

// arrayRef encodes a by identity, like varRef.
func (e *fpEncoder) arrayRef(a *Array) {
	if a == nil {
		e.uint(0)
		return
	}
	if n, fresh := e.arrays.next(a, a.ID); !fresh {
		e.uint(uint64(2 + n))
		return
	}
	e.uint(1)
	e.str(a.Name)
	e.int(int64(a.Elem))
	e.count(len(a.Dims))
	for _, d := range a.Dims {
		e.int(d.Lo)
		e.int(d.Hi)
	}
	e.int(int64(a.ID))
	e.bool(a.Global)
}

// funcRef encodes a callee by its position in the program: -2 for nil,
// -1 for a function the program does not hold.
func (e *fpEncoder) funcRef(f *Func) {
	if f == nil {
		e.int(-2)
		return
	}
	for i := len(e.funcs) - 1; i >= 0; i-- { // a handful of functions
		if e.funcs[i] == f {
			e.int(int64(i))
			return
		}
	}
	e.int(-1)
}

// blockRef encodes a block by its index in the enclosing function: -2
// for nil, -1 for a block outside it.
func (e *fpEncoder) blockRef(b *Block) {
	if b == nil {
		e.int(-2)
		return
	}
	if n := e.blocks.lookup(b, b.ID); n >= 0 {
		e.int(int64(n))
		return
	}
	e.int(-1)
}

func (e *fpEncoder) fn(f *Func) {
	e.str(f.Name)
	e.int(int64(f.Index))
	e.bool(f.IsMain)
	e.count(len(f.Params))
	for _, v := range f.Params {
		e.varRef(v)
	}
	e.count(len(f.Locals))
	for _, v := range f.Locals {
		e.varRef(v)
	}
	e.count(len(f.Arrays))
	for _, a := range f.Arrays {
		e.arrayRef(a)
	}
	maxID := 0
	for _, b := range f.Blocks {
		maxID = max(maxID, b.ID)
	}
	e.blocks = newFpIDs[Block](maxID + 1)
	for i, b := range f.Blocks {
		if e.blocks.lookup(b, b.ID) < 0 {
			e.blocks.assign(b, b.ID, i)
		}
	}
	e.count(len(f.Blocks))
	for _, b := range f.Blocks {
		e.int(int64(b.ID))
		e.str(b.Label)
		e.count(len(b.Stmts))
		for _, s := range b.Stmts {
			e.stmt(s)
		}
		e.term(b.Term)
	}
	e.count(len(f.DoLoops))
	for _, l := range f.DoLoops {
		if l == nil {
			e.uint(0)
			continue
		}
		e.uint(1)
		e.blockRef(l.Preheader)
		e.blockRef(l.Header)
		e.blockRef(l.BodyEntry)
		e.blockRef(l.Latch)
		e.varRef(l.Var)
		e.expr(l.Lo)
		e.expr(l.Limit)
		e.int(l.Step)
	}
}

// Statement, terminator and expression tags; 0 encodes nil.
const (
	fpAssign = 1 + iota
	fpStore
	fpCheck
	fpCall
	fpPrint
	fpTrap
)

const (
	fpGoto = 1 + iota
	fpIf
	fpRet
)

const (
	fpConstInt = 1 + iota
	fpConstFloat
	fpVarRef
	fpLoad
	fpBin
	fpUn
	fpIntrinsic
)

func (e *fpEncoder) stmt(s Stmt) {
	switch s := s.(type) {
	case nil:
		e.uint(0)
	case *AssignStmt:
		e.uint(fpAssign)
		e.varRef(s.Dst)
		e.expr(s.Src)
		e.pos(s.SrcPos)
	case *StoreStmt:
		e.uint(fpStore)
		e.arrayRef(s.Arr)
		e.exprs(s.Idx)
		e.expr(s.Val)
		e.pos(s.SrcPos)
	case *CheckStmt:
		e.uint(fpCheck)
		e.count(len(s.Terms))
		for _, t := range s.Terms {
			e.int(t.Coef)
			e.expr(t.Atom)
		}
		e.int(s.Const)
		e.expr(s.Guard)
		e.str(s.Note)
		e.pos(s.SrcPos)
	case *CallStmt:
		e.uint(fpCall)
		e.funcRef(s.Callee)
		e.exprs(s.Args)
		e.pos(s.SrcPos)
	case *PrintStmt:
		e.uint(fpPrint)
		e.exprs(s.Args)
		e.pos(s.SrcPos)
	case *TrapStmt:
		e.uint(fpTrap)
		e.str(s.Note)
		e.pos(s.SrcPos)
	default:
		panic(fmt.Sprintf("ir: Fingerprint: unhandled statement %T", s))
	}
}

func (e *fpEncoder) term(t Terminator) {
	switch t := t.(type) {
	case nil:
		e.uint(0)
	case *Goto:
		e.uint(fpGoto)
		e.blockRef(t.Target)
	case *If:
		e.uint(fpIf)
		e.expr(t.Cond)
		e.blockRef(t.Then)
		e.blockRef(t.Else)
	case *Ret:
		e.uint(fpRet)
	default:
		panic(fmt.Sprintf("ir: Fingerprint: unhandled terminator %T", t))
	}
}

func (e *fpEncoder) exprs(xs []Expr) {
	e.count(len(xs))
	for _, x := range xs {
		e.expr(x)
	}
}

func (e *fpEncoder) expr(x Expr) {
	switch x := x.(type) {
	case nil:
		e.uint(0)
	case *ConstInt:
		e.uint(fpConstInt)
		e.int(x.V)
	case *ConstFloat:
		e.uint(fpConstFloat)
		e.uint(math.Float64bits(x.V))
	case *VarRef:
		e.uint(fpVarRef)
		e.varRef(x.Var)
	case *Load:
		e.uint(fpLoad)
		e.arrayRef(x.Arr)
		e.exprs(x.Idx)
	case *Bin:
		e.uint(fpBin)
		e.int(int64(x.Op))
		e.expr(x.L)
		e.expr(x.R)
		e.int(int64(x.Typ))
	case *Un:
		e.uint(fpUn)
		e.int(int64(x.Op))
		e.expr(x.X)
		e.int(int64(x.Typ))
	case *Call:
		e.uint(fpIntrinsic)
		e.int(int64(x.Fn))
		e.exprs(x.Args)
		e.int(int64(x.Typ))
	default:
		panic(fmt.Sprintf("ir: Fingerprint: unhandled expression %T", x))
	}
}
