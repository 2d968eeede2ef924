package report

import (
	"strings"
	"testing"

	"nascent"
	"nascent/internal/evalpool"
	"nascent/internal/suite"
)

func TestMeasure1AllPrograms(t *testing.T) {
	for _, p := range suite.Programs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			results := New(Config{}).evaluate([]evalpool.Job{naiveJob(p)})
			row, err := buildRow1(p, results[0])
			if err != nil {
				t.Fatal(err)
			}
			if row.Program != p.Name || row.Suite != p.Suite {
				t.Errorf("identity: %+v", row)
			}
			if row.Lines <= 10 {
				t.Errorf("lines = %d", row.Lines)
			}
			if row.Subroutines < 1 {
				t.Errorf("subroutines = %d", row.Subroutines)
			}
			if row.Loops < 5 {
				t.Errorf("loops = %d", row.Loops)
			}
			if row.StaticInstr == 0 || row.DynInstr == 0 {
				t.Errorf("instruction counts: %d static, %d dynamic", row.StaticInstr, row.DynInstr)
			}
			if row.StaticChk == 0 || row.DynChk == 0 {
				t.Errorf("check counts: %d static, %d dynamic", row.StaticChk, row.DynChk)
			}
			if row.DynRatio < 10 || row.DynRatio > 100 {
				t.Errorf("dynamic ratio = %.1f%%", row.DynRatio)
			}
		})
	}
}

func TestMeasure2Sanity(t *testing.T) {
	p, err := suite.Get("vortex")
	if err != nil {
		t.Fatal(err)
	}
	r := New(Config{})
	naive := r.evaluate([]evalpool.Job{naiveJob(p)})[0]
	if naive.Err != nil {
		t.Fatal(naive.Err)
	}
	if naive.Res.Checks == 0 {
		t.Fatal("no naive checks")
	}
	job := optJob(p, nascent.LLS, nascent.PRX, nascent.ImplyFull)
	cell := buildCell(job.Name, r.evaluate([]evalpool.Job{job})[0], naive.Res.Checks)
	if cell.Err != nil {
		t.Fatal(cell.Err)
	}
	if cell.Eliminated < 90 || cell.Eliminated > 100 {
		t.Errorf("vortex LLS eliminated = %.2f%%, want 90-100", cell.Eliminated)
	}
	if cell.TotalTime <= 0 {
		t.Error("no compile time measured")
	}
}

func TestTable1Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("full table in short mode")
	}
	out, err := New(Config{}).Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range append(suite.Names(), "Table 1", "d-ratio") {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q", want)
		}
	}
}

func TestTable3VariantsWellFormed(t *testing.T) {
	labels := map[string]bool{}
	for _, v := range Table3Variants {
		if labels[v.Label] {
			t.Errorf("duplicate label %q", v.Label)
		}
		labels[v.Label] = true
	}
	for _, want := range []string{"NI", "NI'", "SE", "SE'", "LLS", "LLS'"} {
		if !labels[want] {
			t.Errorf("missing variant %q", want)
		}
	}
}
