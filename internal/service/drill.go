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
// reach every pipeline stage: lexer, parser, sem, lowering, optimizer
// and both engines' poll points. The run executes once; the response
// reports how many injections fired together with the run's typed
// outcome — a result (possibly degraded) or a typed error.
//
// Scoping is temporal: while one drill is armed, concurrent organic
// requests share the process-global registry and may observe injected
// faults too; they surface them as the same typed outcomes. Drills
// never queue behind each other: a second concurrent drill gets a typed
// 409.
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
	runResp, runErr := s.execute(r, res, true /* noCache */, name)
	writeJSON(w, http.StatusOK, DrillResponse{
		Spec:   spec.String(),
		Fired:  chaos.Fired(),
		Result: runResp,
		Error:  runErr,
	})
}
