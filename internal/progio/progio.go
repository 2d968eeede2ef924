// Package progio is the versioned binary codec for compiled vm
// programs.
//
// The wire format is a fixed-order little-endian stream: a 4-byte
// magic, a uint16 format version, the program header scalars, the
// instruction stream, the function/array/check metadata sections, the
// constant pools, and a trailing CRC-32C over everything before it.
// Encoding is deterministic — the same Program always yields the same
// bytes — so round-tripping is byte-exact and content hashes of the
// encoding are stable cache keys.
//
// Decoding follows the bsoncore append/read-value style: every Read
// primitive takes the remaining buffer and returns the value, the
// rest, and an ok flag — no reader state, no copies of the input.
// Decode never panics on hostile input: every count is bounded by the
// bytes that remain, unknown versions are refused with *VersionError,
// and every other malformation (short buffer, bad magic, checksum
// mismatch, invalid program structure) is a *CorruptError. The final
// structural gate is vm.FromImage, which re-validates the invariants
// the executor's allocation paths depend on.
package progio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"nascent/internal/source"
	"nascent/internal/vm"
)

// Version is the current wire-format version. Bump it on ANY change
// to the encoding — field order, widths, sections, semantics. The
// golden-fixture tests pin the byte stream of the current version;
// changing the encoding without bumping trips them.
//
// History:
//
//	1 — initial format.
//	2 — guard/deopt metadata: programs may carry range-guard and
//	    bulk check-count instructions and their pool tuples (the vmrce
//	    rewrite), and header flags bit 1 records whether the
//	    elimination pass ran. A v1 reader would run such a program as
//	    corrupt-opcode garbage, so the rev makes old readers reject
//	    new streams with a typed *VersionError instead.
//	3 — opcode renumbering: the c1*, cpbinstore* and cpqbinstore*
//	    fused families were deleted, so every later opcode moved down.
//	    A v2 stream read by number would run the wrong instructions.
//	4 — the guard/deopt rewrite was deleted: header flag bit 1 is no
//	    longer written (a set bit is corruption), and the range-guard
//	    and bulk check-count opcodes are gone. A v3 stream may carry
//	    either, so it is refused as a whole rather than read.
const Version uint16 = 4

// magic identifies a progio stream ("nascent program").
var magic = [4]byte{'N', 'P', 'R', 'G'}

// castagnoli is the CRC-32C table used for the integrity trailer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is matched by errors.Is for every *CorruptError.
var ErrCorrupt = errors.New("progio: corrupt program")

// ErrVersion is matched by errors.Is for every *VersionError.
var ErrVersion = errors.New("progio: unsupported format version")

// CorruptError reports undecodable bytes: truncation, bad magic, a
// failed checksum, or program structure vm.FromImage refuses.
type CorruptError struct {
	Reason string
}

func (e *CorruptError) Error() string { return "progio: corrupt program: " + e.Reason }

// Is makes errors.Is(err, ErrCorrupt) hold for every CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// VersionError reports a stream this build cannot speak: a header
// whose format version is unknown, or — with OpSkew set — a
// current-version stream carrying an opcode above this build's known
// range. The latter is version skew too (only a newer build emits new
// opcodes), and classifying it as corruption would misdirect operators
// toward their storage instead of their rollout.
type VersionError struct {
	Got uint16
	// OpSkew marks the unknown-opcode form; UnknownOp and AtInstr
	// locate the first offending instruction.
	OpSkew    bool
	UnknownOp uint8
	AtInstr   int
}

func (e *VersionError) Error() string {
	if e.OpSkew {
		return fmt.Sprintf("progio: unsupported program: instruction %d carries opcode %d above this build's known range [0,%d) (stream from a newer build?)",
			e.AtInstr, e.UnknownOp, vm.KnownOps())
	}
	return fmt.Sprintf("progio: unsupported format version %d (this build speaks %d)", e.Got, Version)
}

// Is makes errors.Is(err, ErrVersion) hold for every VersionError.
func (e *VersionError) Is(target error) bool { return target == ErrVersion }

func corrupt(format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// Append/Read value primitives. All fixed-width values are
// little-endian. Reads are zero-copy: they slice the input and report
// failure through the ok flag instead of panicking.

// AppendUint8 appends one byte.
func AppendUint8(dst []byte, v uint8) []byte { return append(dst, v) }

// ReadUint8 reads one byte.
func ReadUint8(src []byte) (uint8, []byte, bool) {
	if len(src) < 1 {
		return 0, src, false
	}
	return src[0], src[1:], true
}

// AppendUint16 appends a little-endian uint16.
func AppendUint16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }

// ReadUint16 reads a little-endian uint16.
func ReadUint16(src []byte) (uint16, []byte, bool) {
	if len(src) < 2 {
		return 0, src, false
	}
	return binary.LittleEndian.Uint16(src), src[2:], true
}

// AppendUint32 appends a little-endian uint32.
func AppendUint32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// ReadUint32 reads a little-endian uint32.
func ReadUint32(src []byte) (uint32, []byte, bool) {
	if len(src) < 4 {
		return 0, src, false
	}
	return binary.LittleEndian.Uint32(src), src[4:], true
}

// AppendInt32 appends a little-endian int32.
func AppendInt32(dst []byte, v int32) []byte { return AppendUint32(dst, uint32(v)) }

// ReadInt32 reads a little-endian int32.
func ReadInt32(src []byte) (int32, []byte, bool) {
	v, rest, ok := ReadUint32(src)
	return int32(v), rest, ok
}

// AppendUint64 appends a little-endian uint64.
func AppendUint64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// ReadUint64 reads a little-endian uint64.
func ReadUint64(src []byte) (uint64, []byte, bool) {
	if len(src) < 8 {
		return 0, src, false
	}
	return binary.LittleEndian.Uint64(src), src[8:], true
}

// AppendInt64 appends a little-endian int64.
func AppendInt64(dst []byte, v int64) []byte { return AppendUint64(dst, uint64(v)) }

// ReadInt64 reads a little-endian int64.
func ReadInt64(src []byte) (int64, []byte, bool) {
	v, rest, ok := ReadUint64(src)
	return int64(v), rest, ok
}

// AppendFloat64 appends a float64 as its IEEE-754 bits, so the byte
// stream is exact for every value including NaN payloads and -0.
func AppendFloat64(dst []byte, v float64) []byte { return AppendUint64(dst, math.Float64bits(v)) }

// ReadFloat64 reads a float64 from its IEEE-754 bits.
func ReadFloat64(src []byte) (float64, []byte, bool) {
	v, rest, ok := ReadUint64(src)
	return math.Float64frombits(v), rest, ok
}

// AppendString appends a uint32 length prefix and the raw bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// ReadString reads a length-prefixed string. The length is bounded by
// the remaining buffer, so a corrupt prefix cannot drive a huge
// allocation.
func ReadString(src []byte) (string, []byte, bool) {
	n, rest, ok := ReadUint32(src)
	if !ok || uint64(n) > uint64(len(rest)) {
		return "", src, false
	}
	return string(rest[:n]), rest[n:], true
}

// readCount reads a uint32 element count and rejects counts that the
// remaining bytes cannot possibly hold (minElem is the smallest
// encoded size of one element, in bytes). This bounds every slice
// allocation during decode by the input length.
func readCount(src []byte, minElem int) (int, []byte, bool) {
	n, rest, ok := ReadUint32(src)
	if !ok || uint64(n)*uint64(minElem) > uint64(len(rest)) {
		return 0, src, false
	}
	return int(n), rest, true
}

// Per-element minimum encoded sizes, used to bound counts at decode.
const (
	instrSize    = 23 // imm(8) a(4) b(4) c(4) cost(2) op(1)
	dimSize      = 24 // lo(8) hi(8) size(8)
	minFuncSize  = 20 // name len(4) entry(4) params(4) two counts(8)
	minArraySize = 25 // name len(4) elem(1) base(8) length(8) dim count(4)
	minCheckSize = 16 // two string lens(8) line(4) col(4)
	minTrapSize  = 12 // string len(4) line(4) col(4)
	posMax       = 1 << 30
)

// appendPos appends a source position as two int32s.
func appendPos(dst []byte, p source.Pos) []byte {
	dst = AppendInt32(dst, int32(p.Line))
	return AppendInt32(dst, int32(p.Col))
}

func readPos(src []byte) (source.Pos, []byte, bool) {
	line, rest, ok := ReadInt32(src)
	if !ok {
		return source.Pos{}, src, false
	}
	col, rest, ok := ReadInt32(rest)
	if !ok || line < 0 || line > posMax || col < 0 || col > posMax {
		return source.Pos{}, src, false
	}
	return source.Pos{Line: int(line), Col: int(col)}, rest, true
}

func appendInt32s(dst []byte, vs []int32) []byte {
	dst = AppendUint32(dst, uint32(len(vs)))
	for _, v := range vs {
		dst = AppendInt32(dst, v)
	}
	return dst
}

func readInt32s(src []byte) ([]int32, []byte, bool) {
	n, rest, ok := readCount(src, 4)
	if !ok {
		return nil, src, false
	}
	vs := make([]int32, n)
	for i := range vs {
		if vs[i], rest, ok = ReadInt32(rest); !ok {
			return nil, src, false
		}
	}
	return vs, rest, true
}

func appendInt64s(dst []byte, vs []int64) []byte {
	dst = AppendUint32(dst, uint32(len(vs)))
	for _, v := range vs {
		dst = AppendInt64(dst, v)
	}
	return dst
}

func readInt64s(src []byte) ([]int64, []byte, bool) {
	n, rest, ok := readCount(src, 8)
	if !ok {
		return nil, src, false
	}
	vs := make([]int64, n)
	for i := range vs {
		if vs[i], rest, ok = ReadInt64(rest); !ok {
			return nil, src, false
		}
	}
	return vs, rest, true
}

// EncodedSize returns the exact length of im's encoding, computed from
// its section lengths, so an encoder can allocate its buffer once.
func EncodedSize(im *vm.Image) int {
	const (
		count  = 4 // uint32 element count or string length prefix
		posLen = 8 // two int32s
	)
	n := len(magic) + 2 + 1 + 4 + 4 + 8 + 8 + 4 + 4 // header
	n += count + instrSize*len(im.Code)
	n += count
	for _, f := range im.Funcs {
		n += count + len(f.Name) + 4 + 4 + count + 4*len(f.ZeroVars) + count + 4*len(f.ClrArrs)
	}
	n += count
	for _, a := range im.Arrays {
		n += count + len(a.Name) + 1 + 8 + 8 + count + dimSize*len(a.Dims)
	}
	n += count + 4*len(im.ArrOrder)
	n += count + 8*len(im.Pool) + count + 8*len(im.IConsts) + count + 8*len(im.FConsts)
	n += count
	for _, cs := range im.Checks {
		n += count + len(cs.Str) + count + len(cs.Note) + posLen
	}
	n += count
	for _, ts := range im.Traps {
		n += count + len(ts.Note) + posLen
	}
	n += count
	for _, f := range im.Fails {
		n += count + len(f)
	}
	return n + 4 // CRC-32C trailer
}

// EncodeImage serializes an Image in the current format version.
func EncodeImage(im *vm.Image) []byte {
	return AppendImage(make([]byte, 0, EncodedSize(im)), im)
}

// AppendImage appends the encoding of im to dst. Its checksum trailer
// covers only the appended span, so the bytes are the same whatever
// dst already holds.
func AppendImage(dst []byte, im *vm.Image) []byte {
	start := len(dst)
	// Header: magic, version, flags, scalar sizes.
	b := append(dst, magic[:]...)
	b = AppendUint16(b, Version)
	flags := uint8(0)
	if im.Optimized {
		flags |= 1
	}
	b = AppendUint8(b, flags)
	b = AppendInt32(b, im.NIntRegs)
	b = AppendInt32(b, im.NFloatRegs)
	b = AppendInt64(b, im.ICells)
	b = AppendInt64(b, im.FCells)
	b = AppendInt32(b, im.NumVars)
	b = AppendInt32(b, im.MainIdx)

	// Instruction stream.
	b = AppendUint32(b, uint32(len(im.Code)))
	for _, in := range im.Code {
		b = AppendInt64(b, in.Imm)
		b = AppendInt32(b, in.A)
		b = AppendInt32(b, in.B)
		b = AppendInt32(b, in.C)
		b = AppendUint16(b, in.Cost)
		b = AppendUint8(b, in.Op)
	}

	// Function metadata.
	b = AppendUint32(b, uint32(len(im.Funcs)))
	for _, f := range im.Funcs {
		b = AppendString(b, f.Name)
		b = AppendInt32(b, f.Entry)
		b = AppendInt32(b, f.Params)
		b = appendInt32s(b, f.ZeroVars)
		b = appendInt32s(b, f.ClrArrs)
	}

	// Array layouts.
	b = AppendUint32(b, uint32(len(im.Arrays)))
	for _, a := range im.Arrays {
		b = AppendString(b, a.Name)
		b = AppendUint8(b, a.Elem)
		b = AppendInt64(b, a.Base)
		b = AppendInt64(b, a.Length)
		b = AppendUint32(b, uint32(len(a.Dims)))
		for _, d := range a.Dims {
			b = AppendInt64(b, d.Lo)
			b = AppendInt64(b, d.Hi)
			b = AppendInt64(b, d.Size)
		}
	}
	b = appendInt32s(b, im.ArrOrder)

	// Constant pools.
	b = appendInt64s(b, im.Pool)
	b = appendInt64s(b, im.IConsts)
	b = AppendUint32(b, uint32(len(im.FConsts)))
	for _, v := range im.FConsts {
		b = AppendFloat64(b, v)
	}

	// Trap metadata.
	b = AppendUint32(b, uint32(len(im.Checks)))
	for _, cs := range im.Checks {
		b = AppendString(b, cs.Str)
		b = AppendString(b, cs.Note)
		b = appendPos(b, cs.Pos)
	}
	b = AppendUint32(b, uint32(len(im.Traps)))
	for _, ts := range im.Traps {
		b = AppendString(b, ts.Note)
		b = appendPos(b, ts.Pos)
	}
	b = AppendUint32(b, uint32(len(im.Fails)))
	for _, s := range im.Fails {
		b = AppendString(b, s)
	}

	// Integrity trailer over everything above.
	return AppendUint32(b, crc32.Checksum(b[start:], castagnoli))
}

// Encode serializes a compiled program in the current format version,
// straight from the program's own slices.
func Encode(p *vm.Program) []byte {
	im := p.Image()
	return EncodeImage(&im)
}

// DecodeImage parses a progio stream into an Image without building a
// runnable program (and therefore without vm.FromImage's structural
// validation — callers that intend to run the result must go through
// Decode). Every string and slice of the Image is allocated afresh:
// nothing aliases data, so the caller may reuse it at once.
func DecodeImage(data []byte) (*vm.Image, error) {
	if len(data) < len(magic)+2 {
		return nil, corrupt("%d bytes is shorter than the header", len(data))
	}
	if string(data[:4]) != string(magic[:]) {
		return nil, corrupt("bad magic %q", data[:4])
	}
	ver, rest, _ := ReadUint16(data[4:])
	if ver != Version {
		return nil, &VersionError{Got: ver}
	}
	// Checksum before structure: a flipped bit anywhere surfaces as the
	// same typed error, not whichever field happened to absorb it.
	if len(rest) < 4 {
		return nil, corrupt("missing checksum trailer")
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	want, _, _ := ReadUint32(trailer)
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, corrupt("checksum mismatch (%08x != %08x)", got, want)
	}
	rest = rest[:len(rest)-4]

	im := &vm.Image{}
	var flags uint8
	var ok bool
	if flags, rest, ok = ReadUint8(rest); !ok {
		return nil, corrupt("truncated header")
	}
	if flags&^1 != 0 {
		return nil, corrupt("unknown flag bits %02x", flags)
	}
	im.Optimized = flags&1 != 0
	if im.NIntRegs, rest, ok = ReadInt32(rest); !ok {
		return nil, corrupt("truncated header")
	}
	if im.NFloatRegs, rest, ok = ReadInt32(rest); !ok {
		return nil, corrupt("truncated header")
	}
	if im.ICells, rest, ok = ReadInt64(rest); !ok {
		return nil, corrupt("truncated header")
	}
	if im.FCells, rest, ok = ReadInt64(rest); !ok {
		return nil, corrupt("truncated header")
	}
	if im.NumVars, rest, ok = ReadInt32(rest); !ok {
		return nil, corrupt("truncated header")
	}
	if im.MainIdx, rest, ok = ReadInt32(rest); !ok {
		return nil, corrupt("truncated header")
	}

	n, rest, ok := readCount(rest, instrSize)
	if !ok {
		return nil, corrupt("bad instruction count")
	}
	im.Code = make([]vm.Instr, n)
	for i := range im.Code {
		in := &im.Code[i]
		if in.Imm, rest, ok = ReadInt64(rest); !ok {
			return nil, corrupt("truncated instruction %d", i)
		}
		if in.A, rest, ok = ReadInt32(rest); !ok {
			return nil, corrupt("truncated instruction %d", i)
		}
		if in.B, rest, ok = ReadInt32(rest); !ok {
			return nil, corrupt("truncated instruction %d", i)
		}
		if in.C, rest, ok = ReadInt32(rest); !ok {
			return nil, corrupt("truncated instruction %d", i)
		}
		if in.Cost, rest, ok = ReadUint16(rest); !ok {
			return nil, corrupt("truncated instruction %d", i)
		}
		if in.Op, rest, ok = ReadUint8(rest); !ok {
			return nil, corrupt("truncated instruction %d", i)
		}
		if int(in.Op) >= vm.KnownOps() {
			return nil, &VersionError{Got: ver, OpSkew: true, UnknownOp: in.Op, AtInstr: i}
		}
	}

	if n, rest, ok = readCount(rest, minFuncSize); !ok {
		return nil, corrupt("bad function count")
	}
	im.Funcs = make([]vm.FuncImage, n)
	for i := range im.Funcs {
		f := &im.Funcs[i]
		if f.Name, rest, ok = ReadString(rest); !ok {
			return nil, corrupt("truncated function %d", i)
		}
		if f.Entry, rest, ok = ReadInt32(rest); !ok {
			return nil, corrupt("truncated function %d", i)
		}
		if f.Params, rest, ok = ReadInt32(rest); !ok {
			return nil, corrupt("truncated function %d", i)
		}
		if f.ZeroVars, rest, ok = readInt32s(rest); !ok {
			return nil, corrupt("truncated function %d", i)
		}
		if f.ClrArrs, rest, ok = readInt32s(rest); !ok {
			return nil, corrupt("truncated function %d", i)
		}
	}

	if n, rest, ok = readCount(rest, minArraySize); !ok {
		return nil, corrupt("bad array count")
	}
	im.Arrays = make([]vm.ArrayImage, n)
	for i := range im.Arrays {
		a := &im.Arrays[i]
		if a.Name, rest, ok = ReadString(rest); !ok {
			return nil, corrupt("truncated array %d", i)
		}
		if a.Elem, rest, ok = ReadUint8(rest); !ok {
			return nil, corrupt("truncated array %d", i)
		}
		if a.Base, rest, ok = ReadInt64(rest); !ok {
			return nil, corrupt("truncated array %d", i)
		}
		if a.Length, rest, ok = ReadInt64(rest); !ok {
			return nil, corrupt("truncated array %d", i)
		}
		var nd int
		if nd, rest, ok = readCount(rest, dimSize); !ok {
			return nil, corrupt("bad dimension count in array %d", i)
		}
		a.Dims = make([]vm.DimImage, nd)
		for k := range a.Dims {
			d := &a.Dims[k]
			if d.Lo, rest, ok = ReadInt64(rest); !ok {
				return nil, corrupt("truncated array %d", i)
			}
			if d.Hi, rest, ok = ReadInt64(rest); !ok {
				return nil, corrupt("truncated array %d", i)
			}
			if d.Size, rest, ok = ReadInt64(rest); !ok {
				return nil, corrupt("truncated array %d", i)
			}
		}
	}
	if im.ArrOrder, rest, ok = readInt32s(rest); !ok {
		return nil, corrupt("bad array order")
	}

	if im.Pool, rest, ok = readInt64s(rest); !ok {
		return nil, corrupt("bad operand pool")
	}
	if im.IConsts, rest, ok = readInt64s(rest); !ok {
		return nil, corrupt("bad int constant pool")
	}
	if n, rest, ok = readCount(rest, 8); !ok {
		return nil, corrupt("bad float constant pool")
	}
	im.FConsts = make([]float64, n)
	for i := range im.FConsts {
		if im.FConsts[i], rest, ok = ReadFloat64(rest); !ok {
			return nil, corrupt("truncated float constant pool")
		}
	}

	if n, rest, ok = readCount(rest, minCheckSize); !ok {
		return nil, corrupt("bad check count")
	}
	im.Checks = make([]vm.CheckImage, n)
	for i := range im.Checks {
		cs := &im.Checks[i]
		if cs.Str, rest, ok = ReadString(rest); !ok {
			return nil, corrupt("truncated check %d", i)
		}
		if cs.Note, rest, ok = ReadString(rest); !ok {
			return nil, corrupt("truncated check %d", i)
		}
		if cs.Pos, rest, ok = readPos(rest); !ok {
			return nil, corrupt("bad position in check %d", i)
		}
	}
	if n, rest, ok = readCount(rest, minTrapSize); !ok {
		return nil, corrupt("bad trap count")
	}
	im.Traps = make([]vm.TrapImage, n)
	for i := range im.Traps {
		ts := &im.Traps[i]
		if ts.Note, rest, ok = ReadString(rest); !ok {
			return nil, corrupt("truncated trap %d", i)
		}
		if ts.Pos, rest, ok = readPos(rest); !ok {
			return nil, corrupt("bad position in trap %d", i)
		}
	}
	if n, rest, ok = readCount(rest, 4); !ok {
		return nil, corrupt("bad fail-message count")
	}
	im.Fails = make([]string, n)
	for i := range im.Fails {
		if im.Fails[i], rest, ok = ReadString(rest); !ok {
			return nil, corrupt("truncated fail message %d", i)
		}
	}

	if len(rest) != 0 {
		return nil, corrupt("%d trailing bytes after program", len(rest))
	}
	return im, nil
}

// Decode parses and validates a progio stream into a runnable
// program, which adopts the decoded slices without copying them.
// Structure vm.FromImage refuses decodes as *CorruptError: from the
// caller's point of view a semantically impossible program and a
// flipped bit are the same fault.
func Decode(data []byte) (*vm.Program, error) {
	im, err := DecodeImage(data)
	if err != nil {
		return nil, err
	}
	p, err := vm.FromImage(im)
	if err != nil {
		return nil, &CorruptError{Reason: err.Error()}
	}
	return p, nil
}
