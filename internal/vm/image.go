package vm

// The Image bridge is the serialization boundary of the vm package:
// an exported, plain-data view of the unexported Program internals.
// internal/progio encodes and decodes Images; FromImage is the single
// trust gate where bytes of unknown provenance become a runnable
// Program, so it re-validates every structural invariant the compiler
// established — in particular every size that is used to allocate
// memory before runWith installs its panic containment.

import (
	"fmt"

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

// The element types below are the Program's own representation, and
// the wire format carries them field for field: converting between a
// Program and an Image moves slices and copies no element.

// Instr is one bytecode instruction. Cost is the fused abstract
// instruction cost charged when the instruction executes (0 inside
// check terms); Imm carries the constant of a check.
type Instr struct {
	Imm     int64
	A, B, C int32
	Cost    uint16
	Op      uint8
}

// DimImage is one array dimension with its extent precomputed.
type DimImage struct {
	Lo, Hi, Size int64
}

// ArrayImage is the compile-time layout of one array: its slab base
// and dimensions are precomputed so element addressing is pure
// arithmetic at run time.
type ArrayImage struct {
	Name   string
	Elem   uint8 // ElemInt or ElemFloat
	Base   int64 // offset into the int or float cell slab
	Length int64
	Dims   []DimImage
}

// FuncImage is the frame layout of one function.
type FuncImage struct {
	Name     string
	Entry    int32   // pc of the entry block
	Params   int32   // parameter count (call cost is 2+Params)
	ZeroVars []int32 // non-param local slots zeroed on entry (both files)
	ClrArrs  []int32 // local array IDs cleared on entry
}

// CheckImage is the trap-rendering residue of one ir.CheckStmt: the
// pre-rendered inequality text plus the optimizer note and source
// position. Capturing values instead of IR pointers keeps Program
// self-contained, so progio can serialize it without the IR.
type CheckImage struct {
	Str  string // CheckStmt.String() rendering of the inequality
	Note string
	Pos  source.Pos
}

// TrapImage is the serializable residue of one ir.TrapStmt.
type TrapImage struct {
	Note string
	Pos  source.Pos
}

// Image is the complete serializable state of a compiled Program.
type Image struct {
	Optimized bool
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

// Image returns the program's state as plain exported data. The
// slices are the program's own, not copies: the Image is a read-only
// view (progio encodes straight from it), and writing through it would
// change a program that concurrent runs share.
func (p *Program) Image() Image {
	return Image{
		Optimized:  p.optimized,
		Code:       p.code,
		Funcs:      p.funcs,
		Arrays:     p.arrays,
		ArrOrder:   p.arrOrder,
		Pool:       p.pool,
		IConsts:    p.iconsts,
		FConsts:    p.fconsts,
		Checks:     p.checks,
		Traps:      p.traps,
		Fails:      p.fails,
		NIntRegs:   int32(p.nIntRegs),
		NFloatRegs: int32(p.nFloatRegs),
		ICells:     p.iCells,
		FCells:     p.fCells,
		NumVars:    int32(p.numVars),
		MainIdx:    p.mainIdx,
	}
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
// The Program adopts the Image's slices instead of copying them: on
// success the caller gives the Image up and must not modify anything
// it references. Every check runs before the Program exists.
// Validation covers every invariant whose violation would escape the
// executor's panic containment (allocation sizes, the const→register
// copies, the pre-containment arrOrder walk) plus cheap structural
// consistency (array layout arithmetic, function entry points, opcode
// range). Garbage that only an executing instruction can trip — a bad
// register operand, a wild pool offset — is left to the executor,
// whose recover turns it into a typed InternalError.
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

	return &Program{
		code:       im.Code,
		funcs:      im.Funcs,
		arrays:     im.Arrays,
		arrOrder:   im.ArrOrder,
		pool:       im.Pool,
		iconsts:    im.IConsts,
		fconsts:    im.FConsts,
		checks:     im.Checks,
		traps:      im.Traps,
		fails:      im.Fails,
		nIntRegs:   int(im.NIntRegs),
		nFloatRegs: int(im.NFloatRegs),
		iCells:     im.ICells,
		fCells:     im.FCells,
		numVars:    int(im.NumVars),
		mainIdx:    im.MainIdx,
		optimized:  im.Optimized,
	}, nil
}
