package ir

import "fmt"

// Verify checks structural invariants of the program's CFGs. It returns
// the first violation found, or nil. It is used by tests and by the
// optimizer after each transformation.
func (p *Program) Verify() error {
	for _, f := range p.Funcs {
		if err := f.Verify(); err != nil {
			return fmt.Errorf("func %s: %w", f.Name, err)
		}
	}
	return nil
}

// Verify checks structural invariants of a single function:
//   - every block has a terminator
//   - terminator targets belong to the function
//   - predecessor lists match successor edges
//   - check statements are canonical (sorted, merged, nonzero coefs)
func (f *Func) Verify() error {
	inFunc := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		inFunc[b] = true
	}
	for _, b := range f.Blocks {
		if b.Term == nil {
			return fmt.Errorf("block b%d has no terminator", b.ID)
		}
		for _, s := range b.Succs() {
			if !inFunc[s] {
				return fmt.Errorf("block b%d branches to foreign block b%d", b.ID, s.ID)
			}
			found := false
			for _, p := range s.Preds {
				if p == b {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("edge b%d->b%d missing from preds of b%d", b.ID, s.ID, s.ID)
			}
		}
		for _, pred := range b.Preds {
			if !inFunc[pred] {
				return fmt.Errorf("block b%d has foreign pred b%d", b.ID, pred.ID)
			}
			found := false
			for _, s := range pred.Succs() {
				if s == b {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("stale pred b%d of b%d", pred.ID, b.ID)
			}
		}
		for _, s := range b.Stmts {
			if c, ok := s.(*CheckStmt); ok {
				if err := verifyCanonical(c); err != nil {
					return fmt.Errorf("block b%d: %s: %w", b.ID, c, err)
				}
			}
		}
	}
	return nil
}

func verifyCanonical(c *CheckStmt) error {
	prev := ""
	for _, t := range c.Terms {
		if t.Coef == 0 {
			return fmt.Errorf("zero coefficient for atom %s", ExprString(t.Atom))
		}
		if len(c.Terms) == 1 {
			break // one term is sorted: skip building its key
		}
		k := Key(t.Atom)
		if prev != "" && k <= prev {
			return fmt.Errorf("terms not sorted/merged at atom %s", ExprString(t.Atom))
		}
		prev = k
	}
	return nil
}
