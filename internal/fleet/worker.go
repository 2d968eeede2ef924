package fleet

import (
	"bufio"
	"io"
	"os"
	"strconv"
	"time"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/interp"
	"nascent/internal/progio"
	"nascent/internal/vm"
)

// ServeWorker speaks the fleet protocol on (r, w) until r reaches EOF:
// one request frame in, one response frame out, strictly in order.
// Both nacc and rangebench expose it behind a -worker flag, so any
// installed binary can serve as a fleet member.
//
// Control frames are served inline: "hello" answers the versioned
// handshake (protocol + progio version + engine set), "ping" answers a
// heartbeat probe with an empty response.
//
// Four chaos sites live here: fleet.worker.kill exits the PROCESS
// mid-job (the coordinator sees the pipe close — genuine member loss,
// not a contained panic) and fleet.worker.hang stalls it until the
// coordinator's deadline kills it; both are keyed by "job#attempt"
// (suffixed "~h" for hedged dispatches) so a retried attempt re-rolls
// its fate. fleet.heartbeat.drop swallows a ping — no response frame —
// keyed by "member#beat", and fleet.member.stale_version makes the
// hello advertise the previous progio version, keyed by member index.
func ServeWorker(r io.Reader, w io.Writer) error {
	br := bufio.NewReader(r)
	bw := bufio.NewWriter(w)
	memberIdx := 0
	beats := uint64(0)
	for {
		var req request
		if err := readFrame(br, &req); err != nil {
			if err == io.EOF {
				return nil // coordinator closed our stdin: clean shutdown
			}
			return err
		}
		if req.Ctrl != "" {
			resp := &response{ID: req.ID}
			switch req.Ctrl {
			case ctrlHello:
				memberIdx = req.Member
				hello := &wireHello{
					Proto:   protoVersion,
					Progio:  progio.Version,
					Engines: nascent.EngineNames(),
				}
				if chaos.Active() && chaos.Fire(chaos.SiteFleetStaleVersion, strconv.Itoa(memberIdx)) {
					hello.Progio = progio.Version - 1
				}
				resp.Hello = hello
			case ctrlPing:
				beats++
				key := strconv.Itoa(memberIdx) + "#" + strconv.FormatUint(beats, 10)
				if chaos.Active() && chaos.Fire(chaos.SiteFleetHeartbeatDrop, key) {
					continue // swallow the probe: the coordinator counts a miss
				}
			default:
				resp.Err = &wireError{Msg: "fleet: unknown control frame " + req.Ctrl, Stage: "decode"}
			}
			if err := writeFrame(bw, resp); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			continue
		}
		if chaos.Active() {
			key := chaos.AttemptKey(req.Name, req.Attempt)
			if req.Hedge {
				key += "~h"
			}
			if chaos.Fire(chaos.SiteFleetKill, key) {
				os.Exit(3)
			}
			if chaos.Fire(chaos.SiteFleetHang, key) {
				// Sleep rather than block: a bare select{} in a
				// single-goroutine process trips the runtime's deadlock
				// detector and exits, which would test the kill path twice.
				for {
					time.Sleep(time.Hour)
				}
			}
		}
		if err := writeFrame(bw, serve(&req)); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// serve executes one request. Every failure is a typed frame, never a
// worker exit: only the chaos sites and a broken pipe end the process.
func serve(req *request) *response {
	resp := &response{ID: req.ID}
	cfg := req.Run.toConfig()

	var run func(nascent.RunConfig) (nascent.RunResult, error)
	switch {
	case len(req.Program) > 0:
		prog, err := progio.Decode(req.Program)
		if err != nil {
			resp.Err = toWireError(err, "decode")
			return resp
		}
		run = prog.Run
		if req.Tier == nascent.EngineVMJit.String() {
			// A vmjit job runs the shipped bytes through a JitHandle,
			// like every other vmjit caller: a jit failure degrades to
			// the switch VM — bit-identical, so degradation is silent.
			run = vm.NewJitHandle(prog).Run
		}
	case req.Source != "":
		opts := nascent.Options{Filename: req.Filename}
		if req.Opts != nil {
			opts = req.Opts.toOptions(req.Filename)
		}
		prog, err := nascent.Compile(req.Source, opts)
		if err != nil {
			resp.Err = toWireError(err, "compile")
			return resp
		}
		run = prog.RunWith
	default:
		resp.Err = &wireError{Msg: "fleet: request carries neither program nor source", Stage: "decode"}
		return resp
	}

	if req.SkipRun {
		resp.Res = &interp.Result{}
		return resp
	}
	res, err := run(cfg)
	if err != nil {
		resp.Err = toWireError(err, "run")
		return resp
	}
	resp.Res = &res
	return resp
}
