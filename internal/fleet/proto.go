// Package fleet shards an evaluation job matrix across worker
// processes. A coordinator compiles every job locally (sharing one
// frontend memo), serializes the compiled bytecode through
// internal/progio, and ships runs to a pool of worker processes
// speaking a length-prefixed frame protocol over stdin/stdout —
// workers for bytecode engines never parse a line of source. Member
// loss (a worker process dying or hanging mid-job) is supervised with
// the same retry/backoff/quarantine semantics as internal/evalpool,
// reusing its typed errors, so a killed worker costs a retry, never a
// wrong table.
//
// Wire protocol: each frame is a 4-byte big-endian length followed by
// a JSON body. The coordinator pipelines up to Config.MaxInFlight
// requests per worker; the worker answers strictly in order, and
// responses are matched by request ID so ordering is not load-bearing.
package fleet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"nascent"
	"nascent/internal/interp"
)

// maxFrame bounds one frame so a corrupt length prefix cannot drive an
// allocation bomb. Programs are small; 64 MiB is generous.
const maxFrame = 64 << 20

// protoVersion is the fleet frame protocol version a worker advertises
// in its hello. Bump on any frame-shape change that an older worker
// could not serve.
const protoVersion = 2

// Control frame names. A request carrying Ctrl is a coordinator→worker
// control message, not a job: "hello" opens the versioned handshake,
// "ping" is a heartbeat probe.
const (
	ctrlHello = "hello"
	ctrlPing  = "ping"
)

// writeFrame marshals v and writes one length-prefixed frame.
func writeFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(body) > maxFrame {
		return fmt.Errorf("fleet: frame of %d bytes exceeds the %d limit", len(body), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// readFrame reads one length-prefixed frame into v. io.EOF at a frame
// boundary is returned as-is (clean shutdown); EOF inside a frame is
// an ErrUnexpectedEOF.
func readFrame(r *bufio.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return err
		}
		return err // io.EOF only possible at the boundary with ReadFull
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return fmt.Errorf("fleet: frame length %d exceeds the %d limit", n, maxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return fmt.Errorf("fleet: truncated frame: %w", err)
	}
	return json.Unmarshal(body, v)
}

// request is one job shipped to a worker. Exactly one of Program
// (a progio stream, for bytecode engines) or Source (for the tree
// engine, which interprets IR the worker lowers itself) is set.
type request struct {
	ID      uint64 `json:"id"`
	Name    string `json:"name"`
	Attempt int    `json:"attempt"`

	// Ctrl marks a control frame ("hello" or "ping"); every job field
	// below is empty on control frames. Member rides the hello so the
	// worker knows its seat index (chaos sites key on it). Hedge marks
	// a hedged duplicate dispatch: worker-side chaos sites append a
	// "~h" suffix to their key so a seed can fate the primary and its
	// hedge independently.
	Ctrl   string `json:"ctrl,omitempty"`
	Member int    `json:"member,omitempty"`
	Hedge  bool   `json:"hedge,omitempty"`

	Program  []byte       `json:"program,omitempty"`
	Source   string       `json:"source,omitempty"`
	Filename string       `json:"filename,omitempty"`
	Opts     *wireOptions `json:"opts,omitempty"`

	// Tier is the execution tier for a program-shipped job: "vmjit"
	// asks the worker to closure-compile the shipped bytes, empty runs
	// them as shipped on the switch VM. The shipped bytes plus this
	// field fully determine execution.
	Tier string `json:"tier,omitempty"`

	Run     wireLimits `json:"run"`
	SkipRun bool       `json:"skip_run,omitempty"`
}

// wireOptions mirrors nascent.Options for source-shipped jobs.
type wireOptions struct {
	BoundsChecks bool `json:"bounds_checks,omitempty"`
	Scheme       int  `json:"scheme,omitempty"`
	Kind         int  `json:"kind,omitempty"`
	Implications int  `json:"implications,omitempty"`
	RotateLoops  bool `json:"rotate_loops,omitempty"`
}

func toWireOptions(o nascent.Options) *wireOptions {
	return &wireOptions{
		BoundsChecks: o.BoundsChecks,
		Scheme:       int(o.Scheme),
		Kind:         int(o.Kind),
		Implications: int(o.Implications),
		RotateLoops:  o.RotateLoops,
	}
}

func (o *wireOptions) toOptions(filename string) nascent.Options {
	return nascent.Options{
		Filename:     filename,
		BoundsChecks: o.BoundsChecks,
		Scheme:       nascent.Scheme(o.Scheme),
		Kind:         nascent.CheckKind(o.Kind),
		Implications: nascent.Implications(o.Implications),
		RotateLoops:  o.RotateLoops,
	}
}

// wireLimits is the run budget; deadlines and contexts stay on the
// coordinator (a worker past its deadline is killed, not asked).
type wireLimits struct {
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	MaxArrayCells   int64  `json:"max_array_cells,omitempty"`
	MaxOutputBytes  int    `json:"max_output_bytes,omitempty"`
	Engine          int    `json:"engine,omitempty"`
}

func toWireLimits(c nascent.RunConfig) wireLimits {
	return wireLimits{
		MaxInstructions: c.MaxInstructions,
		MaxArrayCells:   c.MaxArrayCells,
		MaxOutputBytes:  c.MaxOutputBytes,
		Engine:          int(c.Engine),
	}
}

func (l wireLimits) toConfig() nascent.RunConfig {
	return nascent.RunConfig{
		MaxInstructions: l.MaxInstructions,
		MaxArrayCells:   l.MaxArrayCells,
		MaxOutputBytes:  l.MaxOutputBytes,
		Engine:          nascent.Engine(l.Engine),
	}
}

// response answers one request. interp.Result is all exported plain
// data, so it crosses the wire losslessly.
type response struct {
	ID    uint64         `json:"id"`
	Res   *interp.Result `json:"res,omitempty"`
	Err   *wireError     `json:"err,omitempty"`
	Hello *wireHello     `json:"hello,omitempty"`
}

// wireHello is a worker's handshake advertisement: frame protocol
// version, progio wire-format version, and the engine set it can run.
// The coordinator compares Progio against its own progio.Version and,
// on skew, degrades to shipping source to that member — an old binary
// must never be asked to decode bytes it cannot parse, which is what
// makes rolling restarts across a codec bump safe. A worker so old it
// answers hello with an error (it predates control frames) is treated
// the same way.
type wireHello struct {
	Proto   uint16   `json:"proto"`
	Progio  uint16   `json:"progio"`
	Engines []string `json:"engines,omitempty"`
}

// wireError ships a job failure. Resource errors are reconstructed as
// *interp.ResourceError on the coordinator so both errors.Is matching
// and the rendered text are identical to an in-process run; everything
// else becomes an opaque error with the original text.
type wireError struct {
	Msg      string        `json:"msg"`
	Stage    string        `json:"stage"` // "decode", "compile", or "run"
	Resource *wireResource `json:"resource,omitempty"`
}

type wireResource struct {
	Kind  int    `json:"kind"`
	Limit uint64 `json:"limit"`
}

func toWireError(err error, stage string) *wireError {
	we := &wireError{Msg: err.Error(), Stage: stage}
	var res *interp.ResourceError
	if errors.As(err, &res) {
		we.Resource = &wireResource{Kind: int(res.Resource), Limit: res.Limit}
	}
	return we
}

func (we *wireError) toError() error {
	if we.Resource != nil {
		return &interp.ResourceError{Resource: interp.Resource(we.Resource.Kind), Limit: we.Resource.Limit}
	}
	return errors.New(we.Msg)
}
