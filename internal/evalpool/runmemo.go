package evalpool

import (
	"crypto/sha256"
	"sync"

	"nascent"
)

// RunMemo shares run results between jobs whose compiled programs are
// identical. Many (scheme, kind, implication) configurations of one
// program place exactly the same checks, so their optimized IR — and
// therefore every counter, trap and output byte of a run — is equal;
// the memo keys a successful run by the program's ir Fingerprint, the
// engine and the resource limits, and serves it to every later job with
// the same key.
//
// A memo is opt-in per job (Job.RunMemo) and meant to be scoped to one
// owner — report.Runner creates one per Runner. It never stores a
// failed run, and no lock is held while a run executes: concurrent
// duplicates may both run (their results are identical), and a run
// abandoned at a deadline cannot hold up an identical job.
type RunMemo struct {
	mu   sync.Mutex
	runs map[runKey]nascent.RunResult
}

// runKey is every input a successful run result depends on. Deadline
// and Context only decide whether a run fails, and failures are never
// stored, so they stay out of the key.
type runKey struct {
	prog           [sha256.Size]byte
	engine         nascent.Engine
	maxInstr       uint64
	maxOutputBytes int
	maxArrayCells  int64
}

// NewRunMemo returns an empty run memo.
func NewRunMemo() *RunMemo {
	return &RunMemo{runs: make(map[runKey]nascent.RunResult)}
}

func runKeyOf(prog *nascent.Program, cfg nascent.RunConfig) runKey {
	return runKey{
		prog:           prog.IR.Fingerprint(),
		engine:         cfg.Engine,
		maxInstr:       cfg.MaxInstructions,
		maxOutputBytes: cfg.MaxOutputBytes,
		maxArrayCells:  cfg.MaxArrayCells,
	}
}

func (m *RunMemo) get(k runKey) (nascent.RunResult, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rr, ok := m.runs[k]
	return rr, ok
}

func (m *RunMemo) put(k runKey, rr nascent.RunResult) {
	m.mu.Lock()
	m.runs[k] = rr
	m.mu.Unlock()
}
