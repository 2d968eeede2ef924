package report

import (
	"fmt"
	"strings"
	"time"

	"nascent"
	"nascent/internal/suite"
)

// measure1 evaluates the Table 1 job matrix, one naive checked job per
// suite program: one row per program, with per-row errors aligned by
// index (nil = measured).
func (r *Runner) measure1() ([]Table1Row, []error) {
	jobs := make([]job, len(suite.Programs))
	for i := range suite.Programs {
		jobs[i] = naiveJob(i)
	}
	results := r.evaluate(jobs)
	rows := make([]Table1Row, len(suite.Programs))
	errs := make([]error, len(suite.Programs))
	for i, p := range suite.Programs {
		rows[i], errs[i] = buildRow1(p, results[i])
	}
	return rows, errs
}

// Table1 measures every suite program and renders the paper's Table 1.
func (r *Runner) Table1() (string, error) {
	rows, errs := r.measure1()
	return renderTable1(rows, errs)
}

// renderTable1 renders measured rows; failed rows degrade to ERR!
// markers and surface through a *PartialError.
func renderTable1(rows []Table1Row, errs []error) (string, error) {
	var b strings.Builder
	b.WriteString("Table 1: Program characteristics of benchmark programs\n\n")
	fmt.Fprintf(&b, "%-8s %-10s %6s %5s %6s | %10s %12s | %8s %10s | %7s %7s\n",
		"suite", "program", "lines", "subr", "loops",
		"instr(s)", "instr(d)", "chk(s)", "chk(d)", "s-ratio", "d-ratio")
	b.WriteString(strings.Repeat("-", 110) + "\n")
	var failed []CellError
	for i, p := range suite.Programs {
		row, err := rows[i], errs[i]
		if err != nil {
			// Degrade to a marker row: the rest of the table still
			// renders, and the error is reported through ErrPartial.
			fmt.Fprintf(&b, "%-8s %-10s   ERR!\n", row.Suite, row.Program)
			failed = append(failed, CellError{Name: "table1/" + p.Name, Err: err})
			continue
		}
		fmt.Fprintf(&b, "%-8s %-10s %6d %5d %6d | %10d %12d | %8d %10d | %6.0f%% %6.0f%%\n",
			row.Suite, row.Program, row.Lines, row.Subroutines, row.Loops,
			row.StaticInstr, row.DynInstr, row.StaticChk, row.DynChk,
			row.StaticRatio, row.DynRatio)
	}
	b.WriteString("\ninstr = non-check instructions, chk = range checks; (s) static, (d) dynamic.\n")
	b.WriteString("ratio = checks / other instructions. Paper reports dynamic ratios of 22%-66%.\n")
	return b.String(), partial("table 1", failed)
}

// rowSpec names one row of Table 2 or 3: a labeled optimizer
// configuration measured over the whole suite.
type rowSpec struct {
	Kind   nascent.CheckKind
	Label  string
	Scheme nascent.Scheme
	Impl   nascent.Implications
}

// rowResult is one evaluated rowSpec: per-program cells in suite order
// plus the row's total optimizer and compile times.
type rowResult struct {
	Cells []Table2Cell
	OptT  time.Duration
	TotT  time.Duration
}

// grid evaluates every rowSpec over the whole suite in one fan-out.
// The job matrix is: one naive job per program (the shared
// denominators), then one job per (row, program). Results come back in
// row order regardless of completion order. Failures degrade to cells
// with Err set (a failed naive denominator poisons its whole program
// column); the grid itself never aborts.
func (r *Runner) grid(rows []rowSpec) []rowResult {
	nprog := len(suite.Programs)
	jobs := make([]job, 0, nprog+len(rows)*nprog)
	for i := range suite.Programs {
		jobs = append(jobs, naiveJob(i))
	}
	for _, row := range rows {
		for i := range suite.Programs {
			jobs = append(jobs, optJob(i, row.Scheme, row.Kind, row.Impl))
		}
	}
	results := r.evaluate(jobs)

	naive := results[:nprog]
	out := make([]rowResult, len(rows))
	for i, row := range rows {
		rr := rowResult{Cells: make([]Table2Cell, nprog)}
		for j, p := range suite.Programs {
			res := results[nprog+i*nprog+j]
			name := fmt.Sprintf("%s/%s/%v", p.Name, row.Label, row.Kind)
			if naive[j].Err != nil {
				rr.Cells[j] = Table2Cell{Err: fmt.Errorf("%s: naive: %w", p.Name, naive[j].Err)}
				continue
			}
			cell := buildCell(name, res, naive[j].Res.Checks)
			rr.Cells[j] = cell
			rr.OptT += cell.OptTime
			rr.TotT += cell.TotalTime
		}
		out[i] = rr
	}
	return out
}

// cellErrors collects the failed cells of an evaluated grid, labeled
// by row and program, in render order.
func cellErrors(rows []rowSpec, evaluated []rowResult) []CellError {
	var errs []CellError
	for i, row := range rows {
		for j, p := range suite.Programs {
			if err := evaluated[i].Cells[j].Err; err != nil {
				name := fmt.Sprintf("%s/%s/%v", p.Name, row.Label, row.Kind)
				errs = append(errs, CellError{Name: name, Err: err})
			}
		}
	}
	return errs
}

// table2Specs lists the Table 2 rows: the seven placement schemes ×
// {PRX, INX} with full implications.
func table2Specs() []rowSpec {
	var rows []rowSpec
	for _, kind := range []nascent.CheckKind{nascent.PRX, nascent.INX} {
		for _, sch := range nascent.OptimizedSchemes {
			rows = append(rows, rowSpec{Kind: kind, Label: sch.String(), Scheme: sch, Impl: nascent.ImplyFull})
		}
	}
	return rows
}

// Table2 measures the seven placement schemes × {PRX, INX} and renders
// the paper's Table 2 (percent of dynamic checks eliminated).
func (r *Runner) Table2() (string, error) {
	rows := table2Specs()
	return r.renderTable2(rows, r.grid(rows))
}

// renderTable2 renders an evaluated Table 2 grid.
func (r *Runner) renderTable2(rows []rowSpec, evaluated []rowResult) (string, error) {
	var b strings.Builder
	b.WriteString("Table 2: Percentage of checks eliminated by optimizations")
	if r.timings {
		b.WriteString(" and compilation time")
	}
	b.WriteString("\n\n")
	r.header(&b, "kind", "scheme")
	for i, row := range rows {
		if i > 0 && row.Kind != rows[i-1].Kind {
			b.WriteString("\n")
		}
		r.writeRow(&b, row.Kind.String(), row.Label, evaluated[i])
	}
	b.WriteString("\n")
	if r.timings {
		b.WriteString("Range = time in the range check optimizer, Nascent = whole compilation, all 10 programs.\n")
	}
	return b.String(), partial("table 2", cellErrors(rows, evaluated))
}

// Table3Variant names one row of Table 3.
type Table3Variant struct {
	Label  string
	Scheme nascent.Scheme
	Impl   nascent.Implications
}

// Table3Variants lists the paper's Table 3 rows: each scheme with full
// implications and its primed no-implication variant.
var Table3Variants = []Table3Variant{
	{"NI", nascent.NI, nascent.ImplyFull},
	{"NI'", nascent.NI, nascent.ImplyNone},
	{"SE", nascent.SE, nascent.ImplyFull},
	{"SE'", nascent.SE, nascent.ImplyNone},
	{"LLS", nascent.LLS, nascent.ImplyFull},
	{"LLS'", nascent.LLS, nascent.ImplyCross},
}

// table3Specs lists the Table 3 rows: each scheme with full
// implications and its primed ablated variant, × {PRX, INX}.
func table3Specs() []rowSpec {
	var rows []rowSpec
	for _, kind := range []nascent.CheckKind{nascent.PRX, nascent.INX} {
		for _, v := range Table3Variants {
			rows = append(rows, rowSpec{Kind: kind, Label: v.Label, Scheme: v.Scheme, Impl: v.Impl})
		}
	}
	return rows
}

// Table3 measures the implication ablation and renders the paper's
// Table 3.
func (r *Runner) Table3() (string, error) {
	rows := table3Specs()
	return r.renderTable3(rows, r.grid(rows))
}

// renderTable3 renders an evaluated Table 3 grid.
func (r *Runner) renderTable3(rows []rowSpec, evaluated []rowResult) (string, error) {
	var b strings.Builder
	b.WriteString("Table 3: Percentage of checks eliminated with and without implications between checks\n\n")
	r.header(&b, "kind", "variant")
	for i, row := range rows {
		if i > 0 && row.Kind != rows[i-1].Kind {
			b.WriteString("\n")
		}
		r.writeRow(&b, row.Kind.String(), row.Label, evaluated[i])
	}
	b.WriteString("\nNI'/SE' disable all implications between checks; LLS' disables only\n")
	b.WriteString("within-family implications, keeping the preheader->body edges.\n")
	return b.String(), partial("table 3", cellErrors(rows, evaluated))
}

func (r *Runner) header(b *strings.Builder, k1, k2 string) {
	fmt.Fprintf(b, "%-5s %-7s", k1, k2)
	for _, p := range suite.Programs {
		fmt.Fprintf(b, " %9s", abbreviate(p.Name))
	}
	width := 5 + 1 + 7 + 10*len(suite.Programs)
	if r.timings {
		fmt.Fprintf(b, " | %9s %9s", "Range", "Nascent")
		width += 23
	}
	b.WriteString("\n" + strings.Repeat("-", width) + "\n")
}

func abbreviate(name string) string {
	if len(name) > 9 {
		return name[:9]
	}
	return name
}

func (r *Runner) writeRow(b *strings.Builder, kind, label string, row rowResult) {
	fmt.Fprintf(b, "%-5s %-7s", kind, label)
	for _, cell := range row.Cells {
		if cell.Err != nil {
			// Same 10-column width as " %8.2f%%" so the table stays
			// aligned around a failed cell.
			fmt.Fprintf(b, " %9s", "ERR!")
			continue
		}
		fmt.Fprintf(b, " %8.2f%%", cell.Eliminated)
	}
	if r.timings {
		fmt.Fprintf(b, " | %9s %9s", row.OptT.Round(time.Millisecond), row.TotT.Round(time.Millisecond))
	}
	b.WriteString("\n")
}

// SummaryRow is a compact (scheme,kind) → per-program elimination map
// used by EXPERIMENTS.md generation and tests.
type SummaryRow struct {
	Label   string
	Kind    nascent.CheckKind
	Percent map[string]float64
}

// Summarize runs the full Table 2 + Table 3 measurement grid on the
// Runner and returns the rows in a deterministic order.
func (r *Runner) Summarize() ([]SummaryRow, error) {
	var rows []rowSpec
	for _, kind := range []nascent.CheckKind{nascent.PRX, nascent.INX} {
		for _, sch := range nascent.OptimizedSchemes {
			rows = append(rows, rowSpec{Kind: kind, Label: sch.String(), Scheme: sch, Impl: nascent.ImplyFull})
		}
		rows = append(rows,
			rowSpec{Kind: kind, Label: "NI'", Scheme: nascent.NI, Impl: nascent.ImplyNone},
			rowSpec{Kind: kind, Label: "SE'", Scheme: nascent.SE, Impl: nascent.ImplyNone},
			rowSpec{Kind: kind, Label: "LLS'", Scheme: nascent.LLS, Impl: nascent.ImplyCross},
		)
	}
	evaluated := r.grid(rows)
	if errs := cellErrors(rows, evaluated); len(errs) != 0 {
		// Summarize feeds EXPERIMENTS.md and assertions; a partial
		// summary has no use, so keep the historical abort semantics.
		return nil, fmt.Errorf("summarize: %s: %w", errs[0].Name, errs[0].Err)
	}
	out := make([]SummaryRow, len(rows))
	for i, row := range rows {
		sr := SummaryRow{Label: row.Label, Kind: row.Kind, Percent: map[string]float64{}}
		for j, p := range suite.Programs {
			sr.Percent[p.Name] = evaluated[i].Cells[j].Eliminated
		}
		out[i] = sr
	}
	return out, nil
}
