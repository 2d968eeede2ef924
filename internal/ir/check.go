package ir

import (
	"strconv"
	"strings"
)

// NormalizeTerms sorts terms by atom key, merges duplicates, and drops zero
// coefficients, producing the canonical ordering of paper §2.2.
func NormalizeTerms(terms []CheckTerm) []CheckTerm {
	out := make([]CheckTerm, 0, len(terms))
	if len(terms) == 1 { // nothing to merge or sort: skip the keys
		if terms[0].Coef != 0 {
			out = append(out, terms[0])
		}
		return out
	}
	keys := make([]string, 0, len(terms))
next:
	for _, t := range terms {
		k := Key(t.Atom)
		for i, prev := range keys {
			if prev == k {
				out[i].Coef += t.Coef
				continue next
			}
		}
		keys = append(keys, k)
		out = append(out, t)
	}
	for i := 1; i < len(keys); i++ { // insertion sort: term lists are short
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	kept := out[:0]
	for _, t := range out {
		if t.Coef != 0 {
			kept = append(kept, t)
		}
	}
	return kept
}

// FamilyKey returns the family identity of a check: the canonical string
// of its range-expression. Checks in the same family differ only in Const.
func FamilyKey(terms []CheckTerm) string {
	var b strings.Builder
	for i, t := range terms {
		if i > 0 {
			b.WriteByte('|')
		}
		writeInt(&b, t.Coef)
		b.WriteByte('*')
		writeKey(&b, t.Atom)
	}
	return b.String()
}

// TermsString renders a check's range-expression in the paper's style,
// e.g. "2*n - 1" or "-i".
func TermsString(terms []CheckTerm) string {
	var buf [64]byte
	return string(appendTerms(buf[:0], terms))
}

func appendTerms(dst []byte, terms []CheckTerm) []byte {
	if len(terms) == 0 {
		return append(dst, '0')
	}
	for i, t := range terms {
		c := t.Coef
		switch {
		case i == 0 && c == 1:
		case i == 0 && c == -1:
			dst = append(dst, '-')
		case i == 0:
			dst = append(strconv.AppendInt(dst, c, 10), '*')
		case c == 1:
			dst = append(dst, " + "...)
		case c == -1:
			dst = append(dst, " - "...)
		case c > 0:
			dst = append(strconv.AppendInt(append(dst, " + "...), c, 10), '*')
		default:
			dst = append(strconv.AppendInt(append(dst, " - "...), -c, 10), '*')
		}
		dst = appendExpr(dst, t.Atom)
	}
	return dst
}

// String renders the check in the paper's notation, e.g.
// "check (2*n <= 10)" or "condcheck ((1 <= 2*n), 2*n <= 10)".
func (s *CheckStmt) String() string {
	var buf [128]byte
	return string(s.AppendString(buf[:0]))
}

// AppendString appends s.String() to dst and returns the result.
func (s *CheckStmt) AppendString(dst []byte) []byte {
	if s.Guard != nil {
		dst = appendExpr(append(dst, "condcheck ("...), s.Guard)
		dst = append(dst, ", "...)
	} else {
		dst = append(dst, "check ("...)
	}
	dst = append(appendTerms(dst, s.Terms), " <= "...)
	return append(strconv.AppendInt(dst, s.Const, 10), ')')
}

// Family returns the check's family key.
func (s *CheckStmt) Family() string { return FamilyKey(s.Terms) }

// CloneCheck returns a deep copy of the check.
func (s *CheckStmt) CloneCheck() *CheckStmt {
	c := &CheckStmt{Const: s.Const, Note: s.Note, SrcPos: s.SrcPos}
	c.Terms = make([]CheckTerm, len(s.Terms))
	for i, t := range s.Terms {
		c.Terms[i] = CheckTerm{Coef: t.Coef, Atom: CloneExpr(t.Atom)}
	}
	if s.Guard != nil {
		c.Guard = CloneExpr(s.Guard)
	}
	return c
}

// CompileTime reports whether the check has no symbolic terms, and if so
// whether it passes (0 ≤ Const).
func (s *CheckStmt) CompileTime() (isConst, passes bool) {
	if len(s.Terms) != 0 {
		return false, false
	}
	return true, s.Const >= 0
}

// VarsInTerms collects the IDs of scalar variables appearing in the
// check's range-expression (not the guard): definitions of these kill the
// check in dataflow (paper §3.2).
func (s *CheckStmt) VarsInTerms(set map[int]bool) {
	for _, t := range s.Terms {
		VarsUsed(t.Atom, set)
	}
}

// ArraysInTerms collects the IDs of arrays loaded by the check's
// range-expression; stores to these kill the check.
func (s *CheckStmt) ArraysInTerms(set map[int]bool) {
	for _, t := range s.Terms {
		ArraysUsed(t.Atom, set)
	}
}
