package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/evalpool"
	"nascent/internal/interp"
	"nascent/internal/progcache"
	"nascent/internal/progio"
	"nascent/internal/vm"
)

// Config configures a Fleet. Every zero field selects a default except
// Command, which is required.
type Config struct {
	// Workers is the number of worker processes (<= 0 selects 2).
	Workers int
	// Command builds the command for worker i. The process must serve
	// the fleet protocol on its stdin/stdout (ServeWorker); both nacc
	// and rangebench do behind their -worker flags. Required.
	Command func(i int) *exec.Cmd
	// MaxInFlight bounds pipelined requests per worker (<= 0 selects 2).
	MaxInFlight int
	// MaxAttempts bounds how many times one job may be dispatched
	// before quarantine; only member loss and deadline overruns consume
	// extra attempts (<= 0 selects 3) — evalpool's policy, verbatim.
	MaxAttempts int
	// JobTimeout bounds one remote attempt. On expiry the member is
	// killed (a hung process cannot be cancelled politely) and the job
	// retries on another member (0 means no deadline).
	JobTimeout time.Duration
	// Backoff doubles per retry, capped at MaxBackoff (defaults 1ms /
	// 250ms, matching evalpool).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// HeartbeatInterval paces the background health prober: idle
	// members are pinged each interval, a probe that produces no pong
	// within the interval counts a miss, and HeartbeatMissLimit
	// consecutive misses on an idle member recycles its process
	// proactively instead of waiting for a mid-job death (0 selects 1s;
	// negative disables probing). Busy members are never pinged — a
	// seat with jobs in flight proves liveness by finishing them, and
	// the attempt deadline already covers a hang there.
	HeartbeatInterval time.Duration
	// HeartbeatMissLimit is the consecutive-miss budget before an idle
	// member is recycled (<= 0 selects 3).
	HeartbeatMissLimit int
	// HedgeAfter enables hedged retries: an attempt still pending after
	// this delay dispatches a duplicate of the job to a second member,
	// the first outcome wins, and the straggler is reaped off the
	// critical path (its result, if any, is asserted byte-identical to
	// the winner's). 0 disables hedging; a negative value selects
	// adaptive hedging at 2x the fleet-wide job-latency EWMA (no job is
	// hedged before the first latency sample lands).
	HedgeAfter time.Duration
	// Logf receives member lifecycle lines (default: discard).
	Logf func(format string, args ...any)
}

// Fleet shards job runs across worker processes. It implements
// report.Evaluator: tables generated on a Fleet are byte-identical to
// tables generated on an in-process pool, because compiles happen on
// the coordinator (one shared frontend memo), programs cross the wire
// through the bit-exact progio codec, and the reduce stays ordered.
type Fleet struct {
	cfg    Config
	pool   *evalpool.Pool
	slots  chan *member
	member []*member
	nextID atomic.Uint64
	closed atomic.Bool
	live   atomic.Int64 // live worker processes (each decremented only after reap)

	stop chan struct{}  // closed by Close; stops the heartbeat prober
	hbWG sync.WaitGroup // the heartbeat prober goroutine

	bgMu sync.RWMutex   // serializes bg.Add against Close's bg.Wait
	bg   sync.WaitGroup // hedge dispatchers and straggler reapers

	rollMu sync.Mutex // at most one Roll at a time (TryLock, never queue)

	mu        sync.Mutex
	encMemo   map[progcache.Key]*encEntry
	jobEwmaMs float64 // fleet-wide job latency EWMA (adaptive hedging)
	extra     extraMetrics
}

// extraMetrics accumulates the remote-run side of Metrics; the
// coordinator's local pool owns the compile side.
type extraMetrics struct {
	runTime      time.Duration
	instructions uint64
	checks       uint64
	errors       int
	retries      int
	deaths       int
	timeouts     int
	quarantined  int

	hedges            uint64
	hedgeWins         uint64
	hedgeMismatches   uint64
	skewDegrades      uint64
	hbMisses          uint64
	proactiveRespawns uint64
	rolls             uint64
}

// encEntry is a once-guarded progio encoding memo slot: every variant
// sharing one (source, options, engine) ships the same bytes.
type encEntry struct {
	once sync.Once
	data []byte
	err  error
}

// New starts a fleet: Workers processes are spawned lazily on first
// dispatch, so a fleet whose jobs all fail to compile never forks.
func New(cfg Config) (*Fleet, error) {
	if cfg.Command == nil {
		return nil, fmt.Errorf("fleet: Config.Command is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.HeartbeatMissLimit <= 0 {
		cfg.HeartbeatMissLimit = 3
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	f := &Fleet{
		cfg:     cfg,
		pool:    evalpool.New(0),
		slots:   make(chan *member, cfg.Workers*cfg.MaxInFlight),
		stop:    make(chan struct{}),
		encMemo: make(map[progcache.Key]*encEntry),
	}
	for i := 0; i < cfg.Workers; i++ {
		m := &member{fleet: f, idx: i}
		f.member = append(f.member, m)
		for s := 0; s < cfg.MaxInFlight; s++ {
			f.slots <- m
		}
	}
	if cfg.HeartbeatInterval > 0 {
		f.hbWG.Add(1)
		go f.heartbeatLoop(cfg.HeartbeatInterval, cfg.HeartbeatMissLimit)
	}
	return f, nil
}

// Workers returns the configured member count.
func (f *Fleet) Workers() int { return f.cfg.Workers }

// Close shuts the fleet down: the heartbeat prober stops first, then
// every member's stdin closes (clean EOF exit; a member that does not
// exit promptly is killed), and finally any hedge dispatchers and
// straggler reapers — which observe the dead processes and finish —
// are waited out. The ordering matters: respawns (heartbeat recycles,
// Roll, lazy ensure) all check closed under the same per-member mutex
// shutdown takes, so no respawn can resurrect a seat behind Close and
// leak a process.
func (f *Fleet) Close() {
	if f.closed.Swap(true) {
		return
	}
	close(f.stop)
	f.hbWG.Wait()
	// Barrier: any track() in progress finishes its bg.Add under the
	// read lock; after this, track() observes closed and refuses, so
	// bg.Wait below cannot race a late Add.
	f.bgMu.Lock()
	f.bgMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	for _, m := range f.member {
		m.shutdown()
	}
	f.bg.Wait()
}

// track registers a background goroutine (hedge dispatcher or reaper)
// with the close barrier. It refuses once the fleet is closed so
// bg.Add never races Close's bg.Wait.
func (f *Fleet) track() bool {
	f.bgMu.RLock()
	defer f.bgMu.RUnlock()
	if f.closed.Load() {
		return false
	}
	f.bg.Add(1)
	return true
}

// Metrics merges the coordinator pool's compile-side counters with the
// remote run side.
func (f *Fleet) Metrics() evalpool.Metrics {
	m := f.pool.Metrics()
	f.mu.Lock()
	e := f.extra
	f.mu.Unlock()
	m.RunTime += e.runTime
	m.Instructions += e.instructions
	m.Checks += e.checks
	m.Errors += e.errors
	m.Retries += e.retries
	m.WorkerDeaths += e.deaths
	m.Timeouts += e.timeouts
	m.Quarantined += e.quarantined
	return m
}

// Evaluate runs every job and returns results in job order, exactly
// like evalpool.Pool.Evaluate. Compiles run on the coordinator's
// pool; runs are sharded across the worker processes. Jobs a worker
// cannot express — mutated IR, caller-precompiled runners, skip-run
// measurements — run entirely in-process instead of being mangled.
func (f *Fleet) Evaluate(jobs []evalpool.Job) []evalpool.Result {
	results := make([]evalpool.Result, len(jobs))

	var localIdx, remoteIdx []int
	for i := range jobs {
		if jobs[i].Mutate != nil || jobs[i].Precompiled != nil || jobs[i].SkipRun {
			localIdx = append(localIdx, i)
		} else {
			remoteIdx = append(remoteIdx, i)
		}
	}
	if len(localIdx) > 0 {
		local := make([]evalpool.Job, len(localIdx))
		for k, i := range localIdx {
			local[k] = jobs[i]
		}
		for k, r := range f.pool.Evaluate(local) {
			results[localIdx[k]] = r
		}
	}
	if len(remoteIdx) == 0 {
		return results
	}

	// Stage 1, local: frontend + lower + optimize for every remote job,
	// through the shared memo. SkipRun keeps the pool off the run stage.
	compiles := make([]evalpool.Job, len(remoteIdx))
	for k, i := range remoteIdx {
		compiles[k] = jobs[i]
		compiles[k].SkipRun = true
	}
	compiled := f.pool.Evaluate(compiles)

	// Stage 2, remote: ship each run to a member slot.
	var wg sync.WaitGroup
	for k, i := range remoteIdx {
		results[i] = compiled[k]
		if results[i].Err != nil {
			continue // compile failed locally; nothing to ship
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.runRemote(&results[i], &jobs[i])
		}(i)
	}
	wg.Wait()
	return results
}

// filenameOr mirrors the cache layers' canonical default.
func filenameOr(name string) string {
	if name == "" {
		return "input.mf"
	}
	return name
}

// encoded returns the progio stream for a bytecode job, compiling
// through the engine's pipeline and encoding once per (source,
// filename, options, engine).
func (f *Fleet) encoded(job *evalpool.Job, prog *nascent.Program) ([]byte, error) {
	opts := job.Opts
	opts.Filename = ""
	key := progcache.KeyOf(job.Source, filenameOr(job.Filename), opts, job.Run.Engine)
	f.mu.Lock()
	e := f.encMemo[key]
	if e == nil {
		e = &encEntry{}
		f.encMemo[key] = e
	}
	f.mu.Unlock()
	e.once.Do(func() {
		vp, err := vm.CompileEngine(prog.IR, job.Run.Engine)
		if err != nil {
			e.err = err
			return
		}
		e.data = progio.Encode(vp)
	})
	return e.data, e.err
}

// shipment is one job's wire forms. prog carries compiled progio bytes
// (nil for the tree engine); src carries source + options, which any
// worker of any version can serve. Per attempt, the dispatching member
// chooses: a version-skewed member gets src — never bytes its codec
// might misparse — and results stay byte-identical either way because
// every engine's observables are bit-exact and compilation is
// deterministic.
type shipment struct {
	name string
	prog *request
	src  *request
}

// buildShipment turns one compiled job into its wire forms.
func (f *Fleet) buildShipment(job *evalpool.Job, res *evalpool.Result) (*shipment, error) {
	sh := &shipment{
		name: job.Name,
		src: &request{
			Name:     job.Name,
			Source:   job.Source,
			Filename: filenameOr(job.Filename),
			Opts:     toWireOptions(job.Opts),
			Run:      toWireLimits(job.Run),
		},
	}
	switch job.Run.Engine {
	case nascent.EngineVM, nascent.EngineVMOpt, nascent.EngineVMRCE, nascent.EngineVMJit:
		// Each engine ships the bytes of its own pipeline; vmjit ships
		// the vmrce stream and asks the worker for the closure tier.
		data, err := f.encoded(job, res.Prog)
		if err != nil {
			return nil, err
		}
		tierName := ""
		if job.Run.Engine == nascent.EngineVMJit {
			tierName = nascent.EngineVMJit.String()
		}
		sh.prog = &request{
			Name: job.Name,
			Tier: tierName,
			Run:  toWireLimits(job.Run),

			Program: data,
		}
	}
	return sh, nil
}

// runRemote dispatches one job's run under the fleet's supervision
// policy: member loss and deadline overruns retry with capped
// exponential backoff on whatever member is free next; a job whose
// every attempt fails abnormally is quarantined behind the same typed
// *evalpool.PoisonedInputError the in-process pool uses.
func (f *Fleet) runRemote(res *evalpool.Result, job *evalpool.Job) {
	sh, err := f.buildShipment(job, res)
	if err != nil {
		res.Err = fmt.Errorf("%s: %w", job.Name, err)
		f.count(func(e *extraMetrics) { e.errors++ })
		return
	}

	maxAttempts := f.cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	spec := ""
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		rr, werr, err := f.attempt(sh, attempt)
		res.Run = time.Since(t0)
		res.Attempts = attempt + 1

		switch {
		case err == nil && werr == nil:
			res.Res = *rr
			f.count(func(e *extraMetrics) {
				e.runTime += res.Run
				e.instructions += rr.Instructions
				e.checks += rr.Checks
			})
			return
		case werr != nil:
			// A typed in-band failure: deterministic, never retried —
			// rerunning a budget blowout or compile error cannot heal it,
			// mirroring evalpool's retry policy. Wrap exactly like the
			// in-process pool so error classification downstream holds.
			if werr.Stage == "run" {
				res.Err = fmt.Errorf("%s: run: %w", job.Name, werr.toError())
			} else {
				res.Err = fmt.Errorf("%s: %w", job.Name, werr.toError())
			}
			f.count(func(e *extraMetrics) { e.errors++ })
			return
		}

		// Member loss or deadline overrun: abnormal, retryable.
		if spec == "" {
			spec = chaos.SpecString()
		}
		if attempt+1 >= maxAttempts {
			res.Err = &evalpool.PoisonedInputError{
				Job:       job.Name,
				Attempts:  attempt + 1,
				LastErr:   err,
				ChaosSpec: spec,
			}
			f.count(func(e *extraMetrics) { e.quarantined++; e.errors++ })
			return
		}
		f.count(func(e *extraMetrics) { e.retries++ })
		time.Sleep(f.backoff(attempt))
	}
}

// outcome is one dispatch's result: exactly one of rr (a run result),
// werr (a typed in-band failure), or err (a transport-level, abnormal
// failure) is set.
type outcome struct {
	rr   *interp.Result
	werr *wireError
	err  error
}

// attempt ships one request, hedging a straggler onto a second member
// when configured. The first outcome wins unless it is a transport
// error and the other lane is still live — then the slower lane's
// outcome is taken, so hedging doubles as a reliability win. When both
// lanes deliver a result, a reaper off the critical path asserts they
// are byte-identical; a divergence is counted and logged, because two
// members disagreeing on one program is the invariant this whole repo
// exists to defend.
func (f *Fleet) attempt(sh *shipment, attempt int) (*interp.Result, *wireError, error) {
	m := f.pick(nil)
	delay := f.hedgeDelay()
	if delay <= 0 {
		o := f.dispatch(m, sh, attempt, false)
		f.slots <- m
		return o.rr, o.werr, o.err
	}

	prim := make(chan outcome, 1)
	if !f.track() {
		o := f.dispatch(m, sh, attempt, false)
		f.slots <- m
		return o.rr, o.werr, o.err
	}
	go func() {
		defer f.bg.Done()
		o := f.dispatch(m, sh, attempt, false)
		f.slots <- m
		prim <- o
	}()

	timer := time.NewTimer(delay)
	select {
	case o := <-prim:
		timer.Stop()
		return o.rr, o.werr, o.err
	case <-timer.C:
	}

	// Straggler: dispatch a duplicate on a second member.
	hm := f.pick(m)
	hch := make(chan outcome, 1)
	if !f.track() {
		f.slots <- hm
		o := <-prim
		return o.rr, o.werr, o.err
	}
	f.count(func(e *extraMetrics) { e.hedges++ })
	go func() {
		defer f.bg.Done()
		o := f.dispatch(hm, sh, attempt, true)
		f.slots <- hm
		hch <- o
	}()

	var win outcome
	var winHedge bool
	var loser chan outcome
	select {
	case win = <-prim:
		loser = hch
	case win = <-hch:
		winHedge = true
		loser = prim
	}
	if win.err != nil {
		// The faster lane died abnormally; take the slower lane.
		win = <-loser
		winHedge = !winHedge
		loser = nil
	}
	if winHedge && win.err == nil {
		f.count(func(e *extraMetrics) { e.hedgeWins++ })
	}
	if loser != nil {
		winRes := win.rr
		name := sh.name
		if f.track() {
			go func() {
				defer f.bg.Done()
				lose := <-loser
				if winRes != nil && lose.rr != nil && *winRes != *lose.rr {
					f.count(func(e *extraMetrics) { e.hedgeMismatches++ })
					f.cfg.Logf("fleet: HEDGE MISMATCH on %q: two members disagree on one program", name)
				}
			}()
		}
	}
	return win.rr, win.werr, win.err
}

// hedgeDelay resolves the configured hedging policy to a delay for the
// current attempt; 0 means "do not hedge".
func (f *Fleet) hedgeDelay() time.Duration {
	d := f.cfg.HedgeAfter
	if d >= 0 {
		return d
	}
	// Adaptive: 2x the fleet-wide job latency EWMA, floored so a burst
	// of microsecond jobs cannot hedge everything.
	f.mu.Lock()
	ewma := f.jobEwmaMs
	f.mu.Unlock()
	if ewma <= 0 {
		return 0 // no sample yet: nothing to call a straggler against
	}
	ad := time.Duration(2 * ewma * float64(time.Millisecond))
	if ad < 5*time.Millisecond {
		ad = 5 * time.Millisecond
	}
	return ad
}

// dispatch ships one attempt to member m and classifies the response.
func (f *Fleet) dispatch(m *member, sh *shipment, attempt int, hedge bool) outcome {
	resp, err := m.do(sh, attempt, hedge, f.cfg.JobTimeout)
	if err != nil {
		return outcome{err: err}
	}
	if resp.Err != nil {
		return outcome{werr: resp.Err}
	}
	if resp.Res == nil {
		return outcome{err: &evalpool.WorkerDeathError{
			Job: sh.name, Attempt: attempt,
			Recovered: "fleet: member answered with neither result nor error",
		}}
	}
	return outcome{rr: resp.Res}
}

func (f *Fleet) backoff(attempt int) time.Duration {
	base := f.cfg.Backoff
	if base <= 0 {
		base = time.Millisecond
	}
	max := f.cfg.MaxBackoff
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	if attempt > 20 {
		attempt = 20
	}
	d := base << uint(attempt)
	if d <= 0 || d > max {
		d = max
	}
	return d
}

func (f *Fleet) count(fn func(*extraMetrics)) {
	f.mu.Lock()
	fn(&f.extra)
	f.mu.Unlock()
}

// member is one persistent fleet seat. The seat survives process
// death: losing the process fails the in-flight attempts, and the next
// dispatch — or the heartbeat prober, if the seat is idle — respawns
// it.
type member struct {
	fleet *Fleet
	idx   int

	inflight atomic.Int64 // jobs currently dispatched to this seat

	mu       sync.Mutex
	proc     *proc
	occupied bool // a process has ever held this seat; dead+occupied seats are resurrected by the prober

	hmu sync.Mutex
	h   memberHealth
}

// proc is one live worker process. hello and skew are written once at
// spawn, before the proc is shared, and read-only after.
type proc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	hello *wireHello // the worker's handshake advert (nil: pre-handshake binary)
	skew  bool       // ship source, never bytes, to this process

	wmu sync.Mutex // serializes request frames

	pmu     sync.Mutex
	pending map[uint64]chan *response

	dead chan struct{} // closed when the read loop exits
}

// ensure returns the member's live process, spawning one if the seat
// is empty or its previous occupant died. The closed check and the
// swap happen under the same mutex shutdown takes, so a respawn can
// never race Close into leaking a process.
func (m *member) ensure() (*proc, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.proc != nil {
		select {
		case <-m.proc.dead:
			m.proc = nil // fell over since last use; respawn below
		default:
			return m.proc, nil
		}
	}
	if m.fleet.closed.Load() {
		return nil, fmt.Errorf("fleet: closed")
	}
	p, err := m.fleet.spawn(m.idx)
	if err != nil {
		return nil, err
	}
	m.proc, m.occupied = p, true
	return p, nil
}

// do ships one job attempt and waits for its response, member death,
// or the attempt deadline. Deadline overruns kill the process — a hung
// worker holds no cancellation channel — and surface as the same typed
// timeout the in-process pool uses. The wire form is chosen per
// process: a version-skewed member receives source, not bytes.
func (m *member) do(sh *shipment, attempt int, hedge bool, timeout time.Duration) (*response, error) {
	p, err := m.ensure()
	if err != nil {
		return nil, &evalpool.WorkerDeathError{Job: sh.name, Attempt: attempt, Recovered: err.Error()}
	}
	req := sh.prog
	if req == nil || p.skew {
		req = sh.src
		if sh.prog != nil {
			m.fleet.count(func(e *extraMetrics) { e.skewDegrades++ })
		}
	}
	r := *req
	r.ID = m.fleet.nextID.Add(1)
	r.Attempt = attempt
	r.Hedge = hedge

	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	t0 := time.Now()
	resp, err := p.call(&r, timeout)
	switch {
	case err == nil:
		m.noteOK(time.Since(t0))
		return resp, nil
	case errors.Is(err, errCallDead):
		m.noteFail()
		m.fleet.count(func(e *extraMetrics) { e.deaths++ })
		m.fleet.cfg.Logf("fleet: member %d lost mid-job %q (attempt %d)", m.idx, sh.name, attempt)
		return nil, &evalpool.WorkerDeathError{
			Job: sh.name, Attempt: attempt,
			Recovered: fmt.Sprintf("fleet member %d process lost", m.idx),
		}
	case errors.Is(err, errCallTimeout):
		p.kill()
		m.noteFail()
		m.fleet.count(func(e *extraMetrics) { e.timeouts++ })
		m.fleet.cfg.Logf("fleet: member %d killed at the %s deadline on %q (attempt %d)", m.idx, timeout, sh.name, attempt)
		return nil, &evalpool.JobTimeoutError{Job: sh.name, Attempt: attempt, Timeout: timeout}
	default: // write failure
		p.kill()
		m.noteFail()
		return nil, &evalpool.WorkerDeathError{
			Job: sh.name, Attempt: attempt,
			Recovered: fmt.Sprintf("fleet member %d: %v", m.idx, err),
		}
	}
}

// errCallDead / errCallTimeout classify proc.call failures for do.
var (
	errCallDead    = errors.New("fleet: member process lost")
	errCallTimeout = errors.New("fleet: attempt deadline exceeded")
)

// call ships one frame and waits for its response, process death, or
// the deadline. It is the shared transport under jobs, handshakes, and
// heartbeats; callers own the kill policy.
func (p *proc) call(req *request, timeout time.Duration) (*response, error) {
	ch := make(chan *response, 1)
	p.pmu.Lock()
	p.pending[req.ID] = ch
	p.pmu.Unlock()
	defer func() {
		p.pmu.Lock()
		delete(p.pending, req.ID)
		p.pmu.Unlock()
	}()

	p.wmu.Lock()
	err := writeFrame(p.stdin, req)
	p.wmu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("write: %v", err)
	}

	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-p.dead:
		return nil, errCallDead
	case <-deadline:
		return nil, errCallTimeout
	}
}

// shutdown closes the member's process politely, then forcefully.
func (m *member) shutdown() {
	m.mu.Lock()
	p := m.proc
	m.proc = nil
	m.mu.Unlock()
	if p == nil {
		return
	}
	p.stdin.Close() // EOF → clean worker exit
	select {
	case <-p.dead:
	case <-time.After(2 * time.Second):
		p.kill()
		<-p.dead
	}
}

// helloTimeout bounds the spawn-time handshake: a member that cannot
// answer hello promptly is not a member.
const helloTimeout = 5 * time.Second

// spawn starts one worker process, its response pump, and the
// versioned handshake. The handshake runs before the proc is shared,
// so every dispatcher observes a settled skew decision.
func (f *Fleet) spawn(idx int) (*proc, error) {
	cmd := f.cfg.Command(idx)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{
		cmd:     cmd,
		stdin:   stdin,
		pending: make(map[uint64]chan *response),
		dead:    make(chan struct{}),
	}
	f.live.Add(1)
	go p.readLoop(stdout, &f.live)

	hreq := &request{ID: f.nextID.Add(1), Ctrl: ctrlHello, Member: idx}
	resp, err := p.call(hreq, helloTimeout)
	if err != nil {
		p.kill()
		<-p.dead
		return nil, fmt.Errorf("fleet member %d: handshake: %v", idx, err)
	}
	p.hello = resp.Hello
	switch {
	case resp.Hello == nil:
		// A pre-handshake binary answers hello with a typed decode
		// error; keep it, ship it source only.
		p.skew = true
		f.cfg.Logf("fleet: member %d speaks no handshake; degrading to source shipping", idx)
	case resp.Hello.Proto != protoVersion || resp.Hello.Progio != progio.Version:
		p.skew = true
		f.cfg.Logf("fleet: member %d version skew (proto %d/%d, progio %d/%d); degrading to source shipping",
			idx, resp.Hello.Proto, protoVersion, resp.Hello.Progio, progio.Version)
	}
	f.cfg.Logf("fleet: member %d up (pid %d)", idx, cmd.Process.Pid)
	return p, nil
}

// readLoop pumps response frames to their waiting attempts. Any read
// failure — EOF from a clean exit, a killed process, a corrupt frame —
// declares the process dead; waiting attempts observe the closed dead
// channel and the supervisor retries them elsewhere. The live counter
// drops only after the process is reaped, so live==0 really means no
// worker processes remain.
func (p *proc) readLoop(stdout io.Reader, live *atomic.Int64) {
	br := bufio.NewReader(stdout)
	for {
		var resp response
		if err := readFrame(br, &resp); err != nil {
			break
		}
		p.pmu.Lock()
		ch := p.pending[resp.ID]
		delete(p.pending, resp.ID)
		p.pmu.Unlock()
		if ch != nil {
			ch <- &resp
		}
	}
	close(p.dead)
	p.cmd.Wait() // reap; exit status is irrelevant once dead
	live.Add(-1)
}

func (p *proc) kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
}
