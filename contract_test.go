package nascent_test

// The run contract, pinned on every engine: the default limits, the
// instruction budget, the deadline and cancellation polls, the array
// cell budget, output truncation, the recursion refusal, and panic
// containment must look the same whichever engine runs the program.

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/interp"
)

// contractSrc runs ~200k instructions across main and a subroutine,
// prints one line per outer iteration, and allocates 300 array cells
// (a: 100, b: 200).
const contractSrc = `program contract
  integer a(1:100)
  real b(1:200)
  integer i
  integer j
  do j = 1, 40
    do i = 1, 100
      a(i) = a(i) + j
    enddo
    call bump()
    print j, a(1), b(200)
  enddo
  print a(100)
end

subroutine bump()
  integer k
  do k = 1, 200
    b(k) = b(k) + 0.5
  enddo
end
`

const contractCells = 300

// recursionSrc calls a subroutine that calls itself.
const recursionSrc = `program rec
  integer n
  n = 3
  call down()
  print n
end

subroutine down()
  call down()
end
`

type contractCase struct {
	name string
	src  string
	cfg  func() nascent.RunConfig
	// counters says the instruction and check counts must match too;
	// a budget exit is allowed the documented latitude.
	counters bool
	check    func(t *testing.T, res nascent.RunResult, err error)
}

func wantResource(r interp.Resource, limit uint64) func(*testing.T, nascent.RunResult, error) {
	return func(t *testing.T, _ nascent.RunResult, err error) {
		t.Helper()
		var re *interp.ResourceError
		if !errors.As(err, &re) || re.Resource != r || re.Limit != limit {
			t.Fatalf("err = %v, want %v ResourceError with limit %d", err, r, limit)
		}
	}
}

// TestRunContractAllEngines runs each contract case under every engine
// and asserts equal results, error types and error text. It arms chaos,
// so it must not run in parallel.
func TestRunContractAllEngines(t *testing.T) {
	t.Cleanup(chaos.Disable)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	cases := []contractCase{
		{"defaults", contractSrc, func() nascent.RunConfig { return nascent.RunConfig{} }, true,
			func(t *testing.T, res nascent.RunResult, err error) {
				if err != nil || res.Trapped || len(res.Output) == 0 {
					t.Fatalf("err = %v, trapped %v, output %q; want a clean run", err, res.Trapped, res.Output)
				}
			}},
		{"budget", contractSrc, func() nascent.RunConfig { return nascent.RunConfig{MaxInstructions: 50000} }, false,
			wantResource(interp.ResInstructions, 50000)},
		{"deadline", contractSrc, func() nascent.RunConfig {
			return nascent.RunConfig{Context: expired}
		}, true, wantResource(interp.ResDeadline, 0)},
		{"cancelled", contractSrc, func() nascent.RunConfig { return nascent.RunConfig{Context: cancelled} }, true,
			wantResource(interp.ResCancelled, 0)},
		{"cells", contractSrc, func() nascent.RunConfig { return nascent.RunConfig{MaxArrayCells: contractCells - 1} }, true,
			wantResource(interp.ResArrayCells, contractCells-1)},
		{"output", contractSrc, func() nascent.RunConfig { return nascent.RunConfig{MaxOutputBytes: 40} }, true,
			func(t *testing.T, res nascent.RunResult, err error) {
				if err != nil || len(res.Output) < 40 || len(res.Output) > 80 || res.Output[len(res.Output)-1] != '\n' {
					t.Fatalf("err = %v, output %q; want whole lines truncated just past 40 bytes", err, res.Output)
				}
			}},
		{"recursion", recursionSrc, func() nascent.RunConfig { return nascent.RunConfig{} }, true,
			func(t *testing.T, _ nascent.RunResult, err error) {
				if !errors.Is(err, interp.ErrRecursion) {
					t.Fatalf("err = %v, want ErrRecursion", err)
				}
			}},
	}
	for _, scheme := range []nascent.Scheme{nascent.NI, nascent.LLS} {
		opts := nascent.Options{BoundsChecks: true, Scheme: scheme}
		for _, c := range cases {
			prog, err := nascent.Compile(c.src, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			var ref nascent.RunResult
			var refErr error
			for i, e := range nascent.AllEngines() {
				res, err := prog.RunWith(withEngine(c.cfg(), e))
				t.Run(scheme.String()+"/"+c.name+"/"+e.String(), func(t *testing.T) { c.check(t, res, err) })
				if i == 0 {
					ref, refErr = res, err
					continue
				}
				if !c.counters {
					res.Instructions, res.Checks = ref.Instructions, ref.Checks
				}
				if !reflect.DeepEqual(res, ref) {
					t.Errorf("%s %s: %v result %+v, tree %+v", scheme, c.name, e, res, ref)
				}
				if reflect.TypeOf(err) != reflect.TypeOf(refErr) || errText(err) != errText(refErr) {
					t.Errorf("%s %s: %v err %T %q, tree %T %q", scheme, c.name, e, err, errText(err), refErr, errText(refErr))
				}
			}
		}
	}

	// An injected poll panic is contained as an InternalError of stage
	// "run" naming the executing function. The recovered value names
	// the engine's own chaos site, so the text is not compared.
	prog, err := nascent.Compile(contractSrc, nascent.Options{BoundsChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	chaos.Enable(chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteTreePanic + "," + chaos.SiteVMPanic})
	defer chaos.Disable()
	for _, e := range nascent.AllEngines() {
		_, err := prog.RunWith(nascent.RunConfig{Engine: e})
		var ie *nascent.InternalError
		if !errors.As(err, &ie) || ie.Stage != "run" || ie.Fn != "contract" {
			t.Errorf("%v: err = %v, want an InternalError of stage run in contract", e, err)
		}
	}
}

func withEngine(cfg nascent.RunConfig, e nascent.Engine) nascent.RunConfig {
	cfg.Engine = e
	return cfg
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
