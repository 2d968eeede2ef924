package service

import (
	"errors"
	"net/http"

	"nascent/internal/chaos"
)

// handleDrill serves POST /drill: execute one run request with a
// deterministic fault-injection spec armed for the scope of the
// request. Gated behind Config.AllowDrill — arming injection in a
// shared process is an operator decision, not a tenant right.
//
// The drill's run bypasses every compiled-program store (the service
// cache, the disk cache and the pool's frontend memo) so injection can
// reach every pipeline stage: lexer, parser, sem, lowering, optimizer,
// both engines' poll points, and the pool's worker sites. The supervised
// pool must then either heal the faults through retries (DrillResponse
// Healed) or quarantine the job behind a typed PoisonedInputError
// whose error body carries the exact replayable spec.
//
// Scoping is temporal: while one drill is armed, concurrent organic
// requests share the process-global registry and may observe injected
// faults too — they heal through the same supervision machinery, which
// is precisely the property an in-service drill exists to rehearse.
// Drills never queue behind each other: a second concurrent drill gets
// a typed 409.
func (s *Server) handleDrill(w http.ResponseWriter, r *http.Request) {
	s.nDrill.Add(1)
	if !s.cfg.AllowDrill {
		s.fail(w, &Error{Class: ClassDrill, Message: "drills are disabled (start nascentd with -allow-drill)",
			Status: http.StatusForbidden, NaccExit: -1})
		return
	}
	var req DrillRequest
	if apiErr := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	spec, err := chaos.ParseSpec(req.Spec)
	if err != nil {
		s.fail(w, &Error{Class: ClassDrill, Message: err.Error(), Status: http.StatusBadRequest, NaccExit: 2})
		return
	}
	res, apiErr := s.resolve(&req.Run)
	if apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	release, apiErr := s.admit(r.Context())
	if apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	defer release()

	disarm, err := chaos.AcquireDrill(spec)
	if err != nil {
		status := http.StatusConflict
		if !errors.Is(err, chaos.ErrDrillBusy) {
			status = http.StatusServiceUnavailable
		}
		s.fail(w, &Error{Class: ClassDrill, Message: err.Error(), Status: status, NaccExit: -1})
		return
	}
	defer disarm()

	name := req.Name
	if name == "" {
		name = "drill"
	}
	resp := DrillResponse{Spec: spec.String()}
	runResp, runErr := s.executeDrill(r, res, name)
	resp.Fired = chaos.Fired()
	if runErr != nil {
		resp.Error = runErr
		resp.Attempts = runErr.Attempts
	} else {
		resp.Result = runResp
		resp.Attempts = runResp.Attempts
		resp.Healed = runResp.Attempts > 1
	}
	writeJSON(w, http.StatusOK, resp)
}

// executeDrill runs the drill's request with a drill-scoped job name
// (worker-site injection keys on it, so (spec, name) deterministically
// selects the fate) and the cache bypassed.
func (s *Server) executeDrill(r *http.Request, res *resolved, name string) (*RunResponse, *Error) {
	return s.execute(r, res, true /* noCache */, name)
}
