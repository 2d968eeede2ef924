package report

import (
	"errors"
	"fmt"
)

// ErrPartial is the sentinel matched by errors.Is for every table that
// rendered with failed cells.
var ErrPartial = errors.New("report: table rendered with failed cells")

// CellError names one failed table cell.
type CellError struct {
	// Name labels the measurement ("mdg/LLS/PRX", "table1/mdg").
	Name string
	// Err is the measurement's failure.
	Err error
}

// PartialError reports a table that rendered with one or more "ERR!"
// cells. The table text is still returned alongside it — callers print
// what succeeded and use this error to exit nonzero (rangebench exit
// code 3), so a partial table can never be mistaken for a complete run.
type PartialError struct {
	// Table names the table ("table 1").
	Table string
	// Cells lists every failed cell in render order.
	Cells []CellError
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("report: %s has %d failed cells (first: %s: %v)",
		e.Table, len(e.Cells), e.Cells[0].Name, e.Cells[0].Err)
}

// Is makes errors.Is(err, ErrPartial) match any PartialError.
func (e *PartialError) Is(target error) bool { return target == ErrPartial }

// Unwrap exposes every cell failure to errors.Is/As, so a caller can
// still detect e.g. a contained internal error inside a partial table.
func (e *PartialError) Unwrap() []error {
	errs := make([]error, len(e.Cells))
	for i, c := range e.Cells {
		errs[i] = c.Err
	}
	return errs
}

// partial folds the failed cells into a *PartialError, or nil if the
// table is complete. Returned as the plain error interface so a nil
// result compares equal to nil.
func partial(table string, cells []CellError) error {
	if len(cells) == 0 {
		return nil
	}
	return &PartialError{Table: table, Cells: cells}
}
