package progio_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"nascent"
	"nascent/internal/conformance"
	"nascent/internal/progio"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// compileVM compiles source to a vm.Program (optimized selects the
// vmopt pipeline).
func compileVM(t testing.TB, src, filename string, opts nascent.Options, optimized bool) *vm.Program {
	t.Helper()
	opts.Filename = filename
	prog, err := nascent.Compile(src, opts)
	if err != nil {
		t.Fatalf("compile %s: %v", filename, err)
	}
	var vp *vm.Program
	if optimized {
		vp, err = vm.CompileOptimized(prog.IR)
	} else {
		vp, err = vm.Compile(prog.IR)
	}
	if err != nil {
		t.Fatalf("vm compile %s: %v", filename, err)
	}
	return vp
}

// TestEncodedSizeExact checks that EncodedSize predicts every suite
// encoding to the byte, so EncodeImage fills its buffer without
// regrowing it, and that AppendImage's bytes do not depend on what the
// destination already holds.
func TestEncodedSizeExact(t *testing.T) {
	for _, p := range suite.Programs {
		for _, optimized := range []bool{false, true} {
			im := compileVM(t, p.Source, p.Name+".mf", nascent.Options{BoundsChecks: true, Scheme: nascent.LLS}, optimized).Image()
			enc := progio.EncodeImage(&im)
			if n := progio.EncodedSize(&im); n != len(enc) || cap(enc) != len(enc) {
				t.Errorf("%s: EncodedSize %d, encoding len %d cap %d", p.Name, n, len(enc), cap(enc))
			}
			prefix := []byte("prefix")
			if got := progio.AppendImage(prefix, &im); !bytes.Equal(got[len(prefix):], enc) {
				t.Errorf("%s: AppendImage after a prefix differs from EncodeImage", p.Name)
			}
		}
	}
}

// TestRoundTripSuite pins the core codec contract over the whole
// benchmark suite under several optimizer schemes and both bytecode
// pipelines: encode→decode→re-encode is byte-identical, and the
// decoded program's run is bit-identical to the fresh one — outputs,
// instruction and check counters, traps, everything in the Result.
func TestRoundTripSuite(t *testing.T) {
	schemes := []nascent.Scheme{nascent.Naive, nascent.SE, nascent.LLS}
	for _, p := range suite.Programs {
		for _, sch := range schemes {
			for _, optimized := range []bool{false, true} {
				name := p.Name + "/" + sch.String()
				if optimized {
					name += "/vmopt"
				} else {
					name += "/vm"
				}
				t.Run(name, func(t *testing.T) {
					opts := nascent.Options{BoundsChecks: true, Scheme: sch}
					fresh := compileVM(t, p.Source, p.Name+".mf", opts, optimized)

					enc := progio.Encode(fresh)
					decoded, err := progio.Decode(enc)
					if err != nil {
						t.Fatalf("decode: %v", err)
					}
					re := progio.Encode(decoded)
					if !bytes.Equal(enc, re) {
						t.Fatalf("re-encode differs: %d vs %d bytes", len(enc), len(re))
					}

					cfg := nascent.RunConfig{}
					want, wantErr := fresh.Run(cfg)
					got, gotErr := decoded.Run(cfg)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("error mismatch: fresh=%v decoded=%v", wantErr, gotErr)
					}
					if wantErr != nil && wantErr.Error() != gotErr.Error() {
						t.Fatalf("error text mismatch:\nfresh:   %v\ndecoded: %v", wantErr, gotErr)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("result mismatch:\nfresh:   %+v\ndecoded: %+v", want, got)
					}
				})
			}
		}
	}
}

// TestRoundTripCorpusTraps covers the conformance corpus, whose cases
// include trapping programs: the decoded program must reproduce the
// pinned trap note, class, and position exactly.
func TestRoundTripCorpusTraps(t *testing.T) {
	for _, c := range conformance.Corpus {
		t.Run(c.Name, func(t *testing.T) {
			fresh := compileVM(t, c.Src, c.Name+".mf", nascent.Options{BoundsChecks: true}, false)
			decoded, err := progio.Decode(progio.Encode(fresh))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			res, err := decoded.Run(nascent.RunConfig{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Instructions != c.Instr || res.Checks != c.Checks || res.Output != c.Output {
				t.Fatalf("counters diverge from corpus: got (%d, %d, %q), want (%d, %d, %q)",
					res.Instructions, res.Checks, res.Output, c.Instr, c.Checks, c.Output)
			}
			if res.Trapped != c.Trapped {
				t.Fatalf("trapped = %v, want %v", res.Trapped, c.Trapped)
			}
			if c.Trapped {
				if res.TrapNote != c.TrapNote || string(res.TrapClass) != c.TrapClass || res.TrapPos != c.TrapPos {
					t.Fatalf("trap fields diverge: got (%q, %q, %s), want (%q, %q, %s)",
						res.TrapNote, res.TrapClass, res.TrapPos, c.TrapNote, c.TrapClass, c.TrapPos)
				}
			}
		})
	}
}

// TestDecodeAliasesNoInput pins that nothing a decoded program holds
// aliases the bytes it was decoded from, which is what lets the disk
// cache read entries into a recycled buffer: after Decode the input is
// overwritten with garbage, and the program must still re-encode to
// the same bytes and run with the same Result, trap text included.
func TestDecodeAliasesNoInput(t *testing.T) {
	var progs []*vm.Program
	for _, p := range suite.Programs {
		progs = append(progs, compileVM(t, p.Source, p.Name+".mf", nascent.Options{BoundsChecks: true, Scheme: nascent.LLS}, true))
	}
	for _, c := range conformance.Corpus {
		progs = append(progs, compileVM(t, c.Src, c.Name+".mf", nascent.Options{BoundsChecks: true}, false))
	}
	for _, fresh := range progs {
		enc := progio.Encode(fresh)
		buf := bytes.Clone(enc)
		decoded, err := progio.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = byte(0xa5 ^ i)
		}
		if re := progio.Encode(decoded); !bytes.Equal(re, enc) {
			t.Fatalf("re-encode after overwriting the input differs: %d vs %d bytes", len(re), len(enc))
		}
		want, wantErr := fresh.Run(nascent.RunConfig{})
		got, gotErr := decoded.Run(nascent.RunConfig{})
		if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("run after overwriting the input diverges:\n got %+v (%v)\nwant %+v (%v)", got, gotErr, want, wantErr)
		}
	}
}

// reseal recomputes the CRC trailer after a deliberate mutation, so
// the test reaches the structural decoder behind the checksum gate.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	crc := crc32.Checksum(out[:len(out)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc)
	return out
}

// TestDecodeErrors walks the error taxonomy: every malformation is a
// typed error (ErrCorrupt or ErrVersion), never a panic, never a
// silently wrong program.
func TestDecodeErrors(t *testing.T) {
	p, err := suite.Get("linpackd")
	if err != nil {
		t.Fatal(err)
	}
	enc := progio.Encode(compileVM(t, p.Source, "linpackd.mf", nascent.Options{BoundsChecks: true, Scheme: nascent.LLS}, true))

	t.Run("empty", func(t *testing.T) {
		if _, err := progio.Decode(nil); !errors.Is(err, progio.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[0] ^= 0xff
		if _, err := progio.Decode(bad); !errors.Is(err, progio.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("unknown-version", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint16(bad[4:6], progio.Version+1)
		_, err := progio.Decode(reseal(bad))
		var ve *progio.VersionError
		if !errors.As(err, &ve) || !errors.Is(err, progio.ErrVersion) {
			t.Fatalf("got %v, want VersionError", err)
		}
		if ve.Got != progio.Version+1 {
			t.Fatalf("VersionError.Got = %d, want %d", ve.Got, progio.Version+1)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{1, 4, 6, 7, len(enc) / 4, len(enc) / 2, len(enc) - 5, len(enc) - 1} {
			if _, err := progio.Decode(enc[:n]); !errors.Is(err, progio.ErrCorrupt) {
				t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
			}
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		if _, err := progio.Decode(append(append([]byte(nil), enc...), 0)); !errors.Is(err, progio.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("bit-flips", func(t *testing.T) {
		// Every single-bit flip in the stream must surface as a typed
		// error: anywhere in the payload it is a checksum mismatch, in
		// the version field a VersionError, in the trailer itself a
		// mismatch against the intact payload.
		for off := 0; off < len(enc); off++ {
			bad := append([]byte(nil), enc...)
			bad[off] ^= 1 << (off % 8)
			_, err := progio.Decode(bad)
			if err == nil {
				t.Fatalf("flip at %d decoded cleanly", off)
			}
			if !errors.Is(err, progio.ErrCorrupt) && !errors.Is(err, progio.ErrVersion) {
				t.Fatalf("flip at %d: untyped error %v", off, err)
			}
		}
	})
	t.Run("resealed-structural-garbage", func(t *testing.T) {
		// A mutation with a valid checksum must still be refused by the
		// structural layer (counts against the remaining buffer, then
		// vm.FromImage) — and always with the typed error.
		for off := 6; off < len(enc)-4; off += 7 {
			bad := append([]byte(nil), enc...)
			bad[off] ^= 0x80
			if _, err := progio.Decode(reseal(bad)); err != nil {
				if !errors.Is(err, progio.ErrCorrupt) && !errors.Is(err, progio.ErrVersion) {
					t.Fatalf("resealed flip at %d: untyped error %v", off, err)
				}
			}
		}
	})
}

// TestPrimitives pins the append/read value layer: round trips and
// short-buffer refusals.
// TestDecodeUnknownOpcode pins the opcode-range gate: a stream whose
// header this build speaks but whose code section carries an opcode
// above the known range is version skew (only a newer build emits new
// opcodes), reported as a typed *VersionError with the offending
// instruction located — never as corruption, and never as a panic in
// some downstream consumer of the unvalidated image.
func TestDecodeUnknownOpcode(t *testing.T) {
	vp := compileVM(t, suite.Programs[0].Source, "skew.mf", nascent.Options{BoundsChecks: true}, false)
	im, err := progio.DecodeImage(progio.Encode(vp))
	if err != nil {
		t.Fatalf("decode image: %v", err)
	}
	im.Code[2].Op = 255
	data := progio.EncodeImage(im)

	for _, decode := range []struct {
		name string
		fn   func([]byte) error
	}{
		{"Decode", func(b []byte) error { _, err := progio.Decode(b); return err }},
		{"DecodeImage", func(b []byte) error { _, err := progio.DecodeImage(b); return err }},
	} {
		err := decode.fn(data)
		var ve *progio.VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("%s: got %v, want *VersionError", decode.name, err)
		}
		if !ve.OpSkew || ve.UnknownOp != 255 || ve.AtInstr != 2 {
			t.Fatalf("%s: wrong skew detail: %+v", decode.name, ve)
		}
		if !errors.Is(err, progio.ErrVersion) {
			t.Fatalf("%s: errors.Is(err, ErrVersion) = false", decode.name)
		}
		if errors.Is(err, progio.ErrCorrupt) {
			t.Fatalf("%s: opcode skew must not classify as corruption", decode.name)
		}
	}

	// Boundary: the first opcode past the known range trips the gate
	// exactly at KnownOps, nothing looser.
	im.Code[2].Op = uint8(vm.KnownOps())
	if _, err := progio.Decode(progio.EncodeImage(im)); !errors.Is(err, progio.ErrVersion) {
		t.Fatalf("opcode == KnownOps must be version skew, got %v", err)
	}
}

func TestPrimitives(t *testing.T) {
	b := progio.AppendUint8(nil, 7)
	b = progio.AppendUint16(b, 0xbeef)
	b = progio.AppendUint32(b, 0xdeadbeef)
	b = progio.AppendInt32(b, -12)
	b = progio.AppendInt64(b, -1<<40)
	b = progio.AppendFloat64(b, -0.5)
	b = progio.AppendString(b, "hiho")

	u8, rest, ok := progio.ReadUint8(b)
	if !ok || u8 != 7 {
		t.Fatalf("ReadUint8 = %d, %v", u8, ok)
	}
	u16, rest, ok := progio.ReadUint16(rest)
	if !ok || u16 != 0xbeef {
		t.Fatalf("ReadUint16 = %x, %v", u16, ok)
	}
	u32, rest, ok := progio.ReadUint32(rest)
	if !ok || u32 != 0xdeadbeef {
		t.Fatalf("ReadUint32 = %x, %v", u32, ok)
	}
	i32, rest, ok := progio.ReadInt32(rest)
	if !ok || i32 != -12 {
		t.Fatalf("ReadInt32 = %d, %v", i32, ok)
	}
	i64, rest, ok := progio.ReadInt64(rest)
	if !ok || i64 != -1<<40 {
		t.Fatalf("ReadInt64 = %d, %v", i64, ok)
	}
	f64, rest, ok := progio.ReadFloat64(rest)
	if !ok || f64 != -0.5 {
		t.Fatalf("ReadFloat64 = %v, %v", f64, ok)
	}
	s, rest, ok := progio.ReadString(rest)
	if !ok || s != "hiho" {
		t.Fatalf("ReadString = %q, %v", s, ok)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}

	// Short buffers refuse instead of panicking, and a string length
	// beyond the buffer is rejected.
	if _, _, ok := progio.ReadUint64(make([]byte, 7)); ok {
		t.Fatal("ReadUint64 accepted 7 bytes")
	}
	if _, _, ok := progio.ReadString(progio.AppendUint32(nil, 1000)); ok {
		t.Fatal("ReadString accepted a length beyond the buffer")
	}
}
