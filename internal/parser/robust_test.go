package parser

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestNoPanicsOnGarbage feeds the parser random byte soup and mutated
// program text: it must return errors, never panic.
func TestNoPanicsOnGarbage(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	alphabet := []byte("program subroutine end do enddo while endwhile if then else endif " +
		"integer real parameter call print return and or not " +
		"abc ijk xyz 0123456789 +-*/=<>(),:!\n\n\n  .eE")
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(200)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[r.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("panic on input %q: %v", buf, rec)
				}
			}()
			Parse("garbage.mf", string(buf)) //nolint:errcheck
		}()
	}
}

// TestNoPanicsOnMutatedProgram mutates a valid program and re-parses.
func TestNoPanicsOnMutatedProgram(t *testing.T) {
	base := `program p
  parameter n = 10
  integer i
  real a(n)
  do i = 1, n
    if (i > 3) then
      a(i) = float(i) * 2.0
    else
      a(i) = 0.0
    endif
  enddo
  print a(1), a(n)
end
`
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		b := []byte(base)
		edits := 1 + r.Intn(5)
		for e := 0; e < edits; e++ {
			switch r.Intn(3) {
			case 0: // delete a byte
				if len(b) > 1 {
					i := r.Intn(len(b))
					b = append(b[:i], b[i+1:]...)
				}
			case 1: // duplicate a byte
				i := r.Intn(len(b))
				b = append(b[:i], append([]byte{b[i]}, b[i:]...)...)
			case 2: // flip to a random printable byte
				i := r.Intn(len(b))
				b[i] = byte(32 + r.Intn(95))
			}
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("panic on mutated input:\n%s\npanic: %v", b, rec)
				}
			}()
			Parse("mut.mf", string(b)) //nolint:errcheck
		}()
	}
}

// TestDeepNestingNoStackIssues parses pathologically nested ifs.
func TestDeepNestingNoStackIssues(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("program p\n")
	depth := 2000
	for i := 0; i < depth; i++ {
		sb.WriteString("if (x > 0.0) then\n")
	}
	sb.WriteString("y = 1.0\n")
	for i := 0; i < depth; i++ {
		sb.WriteString("endif\n")
	}
	sb.WriteString("end\n")
	f, err := Parse("deep.mf", sb.String())
	if err != nil {
		t.Fatalf("deep nesting failed to parse: %v", err)
	}
	if len(f.Units) != 1 {
		t.Fatal("unit lost")
	}
}

// TestDeepExpressionNesting parses deeply parenthesized expressions.
func TestDeepExpressionNesting(t *testing.T) {
	expr := strings.Repeat("(", 3000) + "1" + strings.Repeat(")", 3000)
	_, err := Parse("deepexpr.mf", "program p\n  i = "+expr+"\nend\n")
	if err != nil {
		t.Fatalf("deep expression failed: %v", err)
	}
}

// TestNestingBound pins maxNesting: exactly maxNesting parenthesized
// levels parse, one more is a positioned error at the "(" that crosses
// the bound, and the same holds for nested index argument lists.
func TestNestingBound(t *testing.T) {
	nest := func(open, close string, n int) string {
		return "program p\n  i = " + strings.Repeat(open, n) + "1" + strings.Repeat(close, n) + "\nend\n"
	}
	if _, err := Parse("ok.mf", nest("(", ")", maxNesting)); err != nil {
		t.Fatalf("%d levels: %v", maxNesting, err)
	}
	for _, tc := range []struct{ name, open string }{{"parens", "("}, {"index", "a("}} {
		_, err := Parse("deep.mf", nest(tc.open, ")", maxNesting+1))
		// "  i = " is six columns; the failing "(" is the last one opened.
		col := 7 + len(tc.open)*(maxNesting+1) - 1
		want := fmt.Sprintf("2:%d: expression nested more than %d levels deep", col, maxNesting)
		if err == nil || err.Error() != want {
			t.Errorf("%s, %d levels: err = %v, want exactly %q", tc.name, maxNesting+1, err, want)
		}
	}
}

// TestDeepParensAtSourceCap parses "i = " followed by 524k nested
// parentheses: a 1,048,044-byte source, just under nascentd's 1 MiB
// source cap. Without the nesting bound this overflowed the goroutine
// stack and killed the process.
func TestDeepParensAtSourceCap(t *testing.T) {
	const depth = 524000
	src := "program p\n  integer i\n  i = " + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + "\n  print i\nend\n"
	if len(src) != 1048044 {
		t.Fatalf("source is %d bytes, want 1048044", len(src))
	}
	_, err := Parse("deep.mf", src)
	want := fmt.Sprintf("3:%d: expression nested more than %d levels deep", 7+maxNesting, maxNesting)
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want exactly %q", err, want)
	}
}
