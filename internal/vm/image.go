package vm

// The Image bridge is the serialization boundary of the vm package:
// an exported, plain-data mirror of the unexported Program internals.
// internal/progio encodes and decodes Images; FromImage is the single
// trust gate where bytes of unknown provenance become a runnable
// Program, so it re-validates every structural invariant the compiler
// established — in particular every size that is used to allocate
// memory before runWith installs its panic containment.

import (
	"fmt"

	"nascent/internal/ir"
	"nascent/internal/source"
)

// Element type tags in ArrayImage.Elem. The wire format pins these
// values; they are independent of ir.Type's iota order.
const (
	ElemInt   uint8 = 0
	ElemFloat uint8 = 1
)

// Decode-time ceilings. Register files and cell slabs are allocated
// before the executor's panic containment is armed, so FromImage
// refuses sizes no real compile produces instead of letting a hostile
// image turn decoding into an allocation bomb. Cell slabs are further
// bounded at run time by interp.Config.MaxArrayCells (default 64M).
const (
	maxImageRegs  = 1 << 24 // per register file
	maxImageCells = 1 << 36 // per element-type slab
)

// Instr is the wire form of one bytecode instruction.
type Instr struct {
	Imm     int64
	A, B, C int32
	Cost    uint16
	Op      uint8
}

// DimImage is the wire form of one array dimension.
type DimImage struct {
	Lo, Hi, Size int64
}

// ArrayImage is the wire form of one array layout.
type ArrayImage struct {
	Name   string
	Elem   uint8 // ElemInt or ElemFloat
	Base   int64
	Length int64
	Dims   []DimImage
}

// FuncImage is the wire form of one function's frame layout.
type FuncImage struct {
	Name     string
	Entry    int32
	Params   int32
	ZeroVars []int32
	ClrArrs  []int32
}

// CheckImage is the wire form of one range check's trap metadata.
type CheckImage struct {
	Str  string
	Note string
	Pos  source.Pos
}

// TrapImage is the wire form of one static-trap statement.
type TrapImage struct {
	Note string
	Pos  source.Pos
}

// Image is the complete serializable state of a compiled Program.
type Image struct {
	Optimized bool
	RCE       bool
	Code      []Instr
	Funcs     []FuncImage
	Arrays    []ArrayImage
	ArrOrder  []int32
	Pool      []int64
	IConsts   []int64
	FConsts   []float64
	Checks    []CheckImage
	Traps     []TrapImage
	Fails     []string

	NIntRegs   int32
	NFloatRegs int32
	ICells     int64
	FCells     int64
	NumVars    int32
	MainIdx    int32
}

// Image snapshots the program as plain exported data. The slices are
// fresh copies: an Image is caller-owned and mutating it cannot reach
// back into the immutable Program.
func (p *Program) Image() *Image {
	im := &Image{
		Optimized:  p.optimized,
		RCE:        p.rce,
		Code:       make([]Instr, len(p.code)),
		Funcs:      make([]FuncImage, len(p.funcs)),
		Arrays:     make([]ArrayImage, len(p.arrays)),
		ArrOrder:   append([]int32(nil), p.arrOrder...),
		Pool:       append([]int64(nil), p.pool...),
		IConsts:    append([]int64(nil), p.iconsts...),
		FConsts:    append([]float64(nil), p.fconsts...),
		Checks:     make([]CheckImage, len(p.checks)),
		Traps:      make([]TrapImage, len(p.traps)),
		Fails:      append([]string(nil), p.fails...),
		NIntRegs:   int32(p.nIntRegs),
		NFloatRegs: int32(p.nFloatRegs),
		ICells:     p.iCells,
		FCells:     p.fCells,
		NumVars:    int32(p.numVars),
		MainIdx:    p.mainIdx,
	}
	for i, in := range p.code {
		im.Code[i] = Instr{Imm: in.imm, A: in.a, B: in.b, C: in.c, Cost: in.cost, Op: in.op}
	}
	for i, f := range p.funcs {
		im.Funcs[i] = FuncImage{
			Name:     f.name,
			Entry:    f.entry,
			Params:   int32(f.params),
			ZeroVars: append([]int32(nil), f.zeroVars...),
			ClrArrs:  append([]int32(nil), f.clrArrs...),
		}
	}
	for i, a := range p.arrays {
		elem := ElemInt
		if a.elem == ir.Float {
			elem = ElemFloat
		}
		ai := ArrayImage{Name: a.name, Elem: elem, Base: a.base, Length: a.length,
			Dims: make([]DimImage, len(a.dims))}
		for k, d := range a.dims {
			ai.Dims[k] = DimImage{Lo: d.lo, Hi: d.hi, Size: d.size}
		}
		im.Arrays[i] = ai
	}
	for i, cs := range p.checks {
		im.Checks[i] = CheckImage{Str: cs.str, Note: cs.note, Pos: cs.pos}
	}
	for i, ts := range p.traps {
		im.Traps[i] = TrapImage{Note: ts.note, Pos: ts.pos}
	}
	return im
}

// KnownOps reports the number of opcodes this build understands.
// Serialization layers use it to classify an out-of-range opcode as
// version skew (a stream from a newer build) rather than corruption.
func KnownOps() int { return numOps }

// imageErr builds the single error shape FromImage reports.
func imageErr(format string, args ...any) error {
	return fmt.Errorf("vm: bad program image: "+format, args...)
}

// FromImage validates an Image and builds a runnable Program from it.
// The Image's slices are copied, never aliased. Validation covers
// every invariant whose violation would escape the executor's panic
// containment (allocation sizes, the const→register copies, the
// pre-containment arrOrder walk) plus cheap structural consistency
// (array layout arithmetic, function entry points, opcode range).
// Garbage that only an executing instruction can trip — a bad register
// operand, a wild pool offset — is left to the executor, whose
// recover turns it into a typed InternalError.
func FromImage(im *Image) (*Program, error) {
	if im == nil {
		return nil, imageErr("nil image")
	}
	if len(im.Funcs) == 0 {
		return nil, imageErr("no functions")
	}
	if im.MainIdx < 0 || int(im.MainIdx) >= len(im.Funcs) {
		return nil, imageErr("main index %d out of range [0,%d)", im.MainIdx, len(im.Funcs))
	}
	if im.NIntRegs < 0 || im.NIntRegs > maxImageRegs || im.NFloatRegs < 0 || im.NFloatRegs > maxImageRegs {
		return nil, imageErr("register file sizes %d/%d exceed %d", im.NIntRegs, im.NFloatRegs, maxImageRegs)
	}
	if im.ICells < 0 || im.ICells > maxImageCells || im.FCells < 0 || im.FCells > maxImageCells {
		return nil, imageErr("cell slab sizes %d/%d exceed %d", im.ICells, im.FCells, maxImageCells)
	}
	// getMach copies the const pools into the register files at
	// offset NumVars before the run's recover is armed.
	if im.NumVars < 0 ||
		int64(im.NumVars)+int64(len(im.IConsts)) > int64(im.NIntRegs) ||
		int64(im.NumVars)+int64(len(im.FConsts)) > int64(im.NFloatRegs) {
		return nil, imageErr("const pools (%d int, %d float at var base %d) overflow register files %d/%d",
			len(im.IConsts), len(im.FConsts), im.NumVars, im.NIntRegs, im.NFloatRegs)
	}
	for i, in := range im.Code {
		if int(in.Op) >= numOps {
			return nil, imageErr("instruction %d: opcode %d out of range [0,%d)", i, in.Op, numOps)
		}
	}
	for i, f := range im.Funcs {
		if f.Entry < 0 || int(f.Entry) > len(im.Code) {
			return nil, imageErr("func %d (%s): entry %d out of range [0,%d]", i, f.Name, f.Entry, len(im.Code))
		}
		if f.Params < 0 {
			return nil, imageErr("func %d (%s): negative param count %d", i, f.Name, f.Params)
		}
		for _, z := range f.ZeroVars {
			// Zeroed slots are cleared in both register files on entry.
			if z < 0 || z >= im.NIntRegs || z >= im.NFloatRegs {
				return nil, imageErr("func %d (%s): zero slot %d out of range", i, f.Name, z)
			}
		}
		for _, a := range f.ClrArrs {
			if a < 0 || int(a) >= len(im.Arrays) {
				return nil, imageErr("func %d (%s): cleared array %d out of range", i, f.Name, a)
			}
		}
	}
	// Array layouts must tile their slab exactly: lengths are dim
	// products, bases are in bounds, and the per-type length sums equal
	// the slab sizes — otherwise a small-looking image could pass the
	// runtime cell budget yet allocate a huge slab.
	var iSum, fSum int64
	for i, a := range im.Arrays {
		if a.Elem != ElemInt && a.Elem != ElemFloat {
			return nil, imageErr("array %d (%s): bad element tag %d", i, a.Name, a.Elem)
		}
		length := int64(1)
		for k, d := range a.Dims {
			if d.Size <= 0 || d.Size != d.Hi-d.Lo+1 {
				return nil, imageErr("array %d (%s): dim %d size %d inconsistent with bounds %d:%d",
					i, a.Name, k+1, d.Size, d.Lo, d.Hi)
			}
			if length > maxImageCells/d.Size {
				return nil, imageErr("array %d (%s): extent overflow", i, a.Name)
			}
			length *= d.Size
		}
		if len(a.Dims) == 0 {
			return nil, imageErr("array %d (%s): no dimensions", i, a.Name)
		}
		if a.Length != length {
			return nil, imageErr("array %d (%s): length %d, dims multiply to %d", i, a.Name, a.Length, length)
		}
		cells := im.ICells
		if a.Elem == ElemFloat {
			cells = im.FCells
		}
		if a.Base < 0 || a.Base > cells-length {
			return nil, imageErr("array %d (%s): slab range [%d,%d) outside [0,%d)",
				i, a.Name, a.Base, a.Base+length, cells)
		}
		if a.Elem == ElemInt {
			iSum += length
		} else {
			fSum += length
		}
	}
	if iSum != im.ICells || fSum != im.FCells {
		return nil, imageErr("array lengths sum to %d/%d cells, slabs are %d/%d", iSum, fSum, im.ICells, im.FCells)
	}
	// arrOrder drives the pre-containment cell-budget walk: it must be
	// a permutation of the array IDs.
	if len(im.ArrOrder) != len(im.Arrays) {
		return nil, imageErr("arrOrder has %d entries for %d arrays", len(im.ArrOrder), len(im.Arrays))
	}
	seen := make([]bool, len(im.Arrays))
	for _, id := range im.ArrOrder {
		if id < 0 || int(id) >= len(im.Arrays) || seen[id] {
			return nil, imageErr("arrOrder is not a permutation of array IDs")
		}
		seen[id] = true
	}

	p := &Program{
		code:       make([]instr, len(im.Code)),
		funcs:      make([]funcInfo, len(im.Funcs)),
		arrays:     make([]arrayInfo, len(im.Arrays)),
		arrOrder:   append([]int32(nil), im.ArrOrder...),
		pool:       append([]int64(nil), im.Pool...),
		iconsts:    append([]int64(nil), im.IConsts...),
		fconsts:    append([]float64(nil), im.FConsts...),
		checks:     make([]checkInfo, len(im.Checks)),
		traps:      make([]trapInfo, len(im.Traps)),
		fails:      append([]string(nil), im.Fails...),
		nIntRegs:   int(im.NIntRegs),
		nFloatRegs: int(im.NFloatRegs),
		iCells:     im.ICells,
		fCells:     im.FCells,
		numVars:    int(im.NumVars),
		mainIdx:    im.MainIdx,
		mcache:     new(machCache),
		optimized:  im.Optimized,
		rce:        im.RCE,
	}
	for i, in := range im.Code {
		p.code[i] = instr{imm: in.Imm, a: in.A, b: in.B, c: in.C, cost: in.Cost, op: in.Op}
	}
	for i, f := range im.Funcs {
		p.funcs[i] = funcInfo{
			name:     f.Name,
			entry:    f.Entry,
			params:   int(f.Params),
			zeroVars: append([]int32(nil), f.ZeroVars...),
			clrArrs:  append([]int32(nil), f.ClrArrs...),
		}
	}
	for i, a := range im.Arrays {
		elem := ir.Int
		if a.Elem == ElemFloat {
			elem = ir.Float
		}
		ai := arrayInfo{name: a.Name, elem: elem, base: a.Base, length: a.Length,
			dims: make([]dimInfo, len(a.Dims))}
		for k, d := range a.Dims {
			ai.dims[k] = dimInfo{lo: d.Lo, hi: d.Hi, size: d.Size}
		}
		p.arrays[i] = ai
	}
	for i, cs := range im.Checks {
		p.checks[i] = checkInfo{str: cs.Str, note: cs.Note, pos: cs.Pos}
	}
	for i, ts := range im.Traps {
		p.traps[i] = trapInfo{note: ts.Note, pos: ts.Pos}
	}
	return p, nil
}
