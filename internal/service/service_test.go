package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nascent"
)

// Test programs.

// progOK is a small clean program with eliminable checks.
const progOK = `program p
  real a(10)
  integer i
  do i = 1, 10
    a(i) = float(i)
  enddo
  print a(10)
end
`

// progTrap indexes out of range under checks.
const progTrap = `program p
  real a(5)
  integer i
  i = 9
  a(i) = 1.0
  print a(1)
end
`

// progBad does not parse.
const progBad = "program p\n  do done doom\nend\n"

// newTestServer returns a Server with fast test-sized limits. Callers
// needing different knobs pass a mutator.
func newTestServer(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Logf: t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg)
}

// do sends one request through the handler and decodes the JSON body.
func do(t *testing.T, s *Server, method, path string, body any, into any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if into != nil {
		if err := json.Unmarshal(w.Body.Bytes(), into); err != nil {
			t.Fatalf("%s %s: decode body %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w
}

// wantError asserts a typed error body with the given status and class.
func wantError(t *testing.T, w *httptest.ResponseRecorder, status int, class string) *Error {
	t.Helper()
	if w.Code != status {
		t.Fatalf("status = %d, want %d (body %s)", w.Code, status, w.Body.String())
	}
	var body errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error == nil {
		t.Fatalf("error body %q not typed: %v", w.Body.String(), err)
	}
	if body.Error.Class != class {
		t.Fatalf("error class = %q, want %q (body %s)", body.Error.Class, class, w.Body.String())
	}
	if body.Error.Status != status {
		t.Fatalf("error.status = %d, want %d", body.Error.Status, status)
	}
	return body.Error
}

func TestCompileEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	req := CompileRequest{Source: progOK, Options: Options{Scheme: "all"}}

	var resp CompileResponse
	w := do(t, s, "POST", "/compile", req, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if resp.CacheHit {
		t.Error("first compile reported a cache hit")
	}
	if resp.Scheme != "ALL" {
		t.Errorf("scheme = %q, want ALL", resp.Scheme)
	}
	if resp.Opt == nil || resp.Opt.ChecksBefore == 0 {
		t.Errorf("optimizer report missing or empty: %+v", resp.Opt)
	}
	if len(resp.CacheKey) != 64 {
		t.Errorf("cache key %q is not hex sha256", resp.CacheKey)
	}

	// Same request again: served from the cache, same content address.
	var resp2 CompileResponse
	do(t, s, "POST", "/compile", req, &resp2)
	if !resp2.CacheHit {
		t.Error("second compile missed the cache")
	}
	if resp2.CacheKey != resp.CacheKey {
		t.Errorf("cache key changed across identical requests: %q vs %q", resp.CacheKey, resp2.CacheKey)
	}

	// A different engine is a different artifact (bytecode is
	// precompiled per engine), so a different key.
	var resp3 CompileResponse
	do(t, s, "POST", "/compile", CompileRequest{Source: progOK, Options: Options{Scheme: "all"}, Engine: "vmopt"}, &resp3)
	if resp3.CacheKey == resp.CacheKey {
		t.Error("vmopt engine shares the tree engine's cache key")
	}
}

// TestRunMatchesDirectExecution is the service's core fidelity claim:
// for every engine, POST /run returns byte-identical output and
// identical counters to running the same program directly through the
// library (which is exactly what nacc does).
func TestRunMatchesDirectExecution(t *testing.T) {
	s := newTestServer(t, nil)
	for _, engine := range nascent.EngineNames() {
		for _, scheme := range []string{"naive", "all"} {
			t.Run(engine+"/"+scheme, func(t *testing.T) {
				opts := nascent.Options{BoundsChecks: true, Filename: "input.mf"}
				if scheme == "all" {
					opts.Scheme = nascent.ALL
				}
				prog, err := nascent.Compile(progOK, opts)
				if err != nil {
					t.Fatalf("direct compile: %v", err)
				}
				eng, err := nascent.ParseEngine(engine)
				if err != nil {
					t.Fatalf("parse engine: %v", err)
				}
				want, err := prog.RunWith(nascent.RunConfig{Engine: eng})
				if err != nil {
					t.Fatalf("direct run: %v", err)
				}

				var resp RunResponse
				w := do(t, s, "POST", "/run", RunRequest{
					CompileRequest: CompileRequest{Source: progOK, Options: Options{Scheme: scheme}, Engine: engine},
				}, &resp)
				if w.Code != http.StatusOK {
					t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
				}
				if resp.Output != want.Output {
					t.Errorf("output diverges from direct run:\nservice: %q\ndirect:  %q", resp.Output, want.Output)
				}
				if resp.Instructions != want.Instructions || resp.Checks != want.Checks {
					t.Errorf("counters diverge: service (%d, %d), direct (%d, %d)",
						resp.Instructions, resp.Checks, want.Instructions, want.Checks)
				}
				if resp.NaccExit != 0 || resp.Trapped {
					t.Errorf("clean run reported exit %d trapped %v", resp.NaccExit, resp.Trapped)
				}
			})
		}
	}
}

// TestRunTrapped: a failed range check is a program outcome, not a
// service error — HTTP 200 with Trapped and nacc exit 1.
func TestRunTrapped(t *testing.T) {
	s := newTestServer(t, nil)
	var resp RunResponse
	w := do(t, s, "POST", "/run", RunRequest{
		CompileRequest: CompileRequest{Source: progTrap},
	}, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %s)", w.Code, w.Body.String())
	}
	if !resp.Trapped || resp.NaccExit != 1 {
		t.Errorf("trapped = %v, nacc_exit = %d; want true, 1", resp.Trapped, resp.NaccExit)
	}
	if resp.TrapNote == "" {
		t.Error("trap note is empty")
	}
}

func TestRunCompileError(t *testing.T) {
	s := newTestServer(t, nil)
	w := do(t, s, "POST", "/run", RunRequest{CompileRequest: CompileRequest{Source: progBad}}, nil)
	e := wantError(t, w, http.StatusUnprocessableEntity, ClassCompile)
	if e.NaccExit != 3 {
		t.Errorf("nacc_exit = %d, want 3", e.NaccExit)
	}
}

// TestDeepNestingIsCompileError posts "i = " followed by 524k nested
// parentheses, a source just under the default 1 MiB cap. It must come
// back as a typed compile error (the parser bounds nesting depth) rather
// than overflowing the stack, and the same server must keep serving.
func TestDeepNestingIsCompileError(t *testing.T) {
	s := newTestServer(t, nil)
	const depth = 524000
	src := "program p\n  integer i\n  i = " + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + "\n  print i\nend\n"
	if len(src) > s.cfg.MaxSourceBytes {
		t.Fatalf("source is %d bytes, over the %d-byte cap", len(src), s.cfg.MaxSourceBytes)
	}
	w := do(t, s, "POST", "/compile", CompileRequest{Source: src}, nil)
	e := wantError(t, w, http.StatusUnprocessableEntity, ClassCompile)
	if e.NaccExit != 3 || !strings.Contains(e.Message, "3:10007: expression nested more than") {
		t.Errorf("nacc_exit = %d, message %q; want 3 and a positioned nesting error", e.NaccExit, e.Message)
	}

	var resp RunResponse
	if w := do(t, s, "POST", "/run", RunRequest{CompileRequest: CompileRequest{Source: progOK}}, &resp); w.Code != http.StatusOK {
		t.Fatalf("run after the deep source: status = %d, body %s", w.Code, w.Body.String())
	}
	if resp.Output != "10\n" {
		t.Errorf("run output = %q, want %q", resp.Output, "10\n")
	}
}

func TestRunResourceExhausted(t *testing.T) {
	s := newTestServer(t, nil)
	w := do(t, s, "POST", "/run", RunRequest{
		CompileRequest: CompileRequest{Source: progOK},
		Budget:         Budget{MaxInstructions: 10},
	}, nil)
	e := wantError(t, w, http.StatusRequestTimeout, ClassResource)
	if e.NaccExit != 4 {
		t.Errorf("nacc_exit = %d, want 4", e.NaccExit)
	}
	if e.Resource == "" {
		t.Error("resource field empty")
	}
}

func TestUsageErrors(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxSourceBytes = 1 << 10 })
	cases := []struct {
		name   string
		body   any
		status int
		class  string
		exit   int
	}{
		{"malformed json", `{"source": `, http.StatusBadRequest, ClassUsage, 2},
		{"unknown field", `{"source": "program p\nend\n", "bogus": 1}`, http.StatusBadRequest, ClassUsage, 2},
		{"trailing garbage", `{"source": "program p\nend\n"} extra`, http.StatusBadRequest, ClassUsage, 2},
		{"bad field type", `{"source": 42}`, http.StatusBadRequest, ClassUsage, 2},
		{"empty source", RunRequest{}, http.StatusBadRequest, ClassUsage, 2},
		{"bad scheme", RunRequest{CompileRequest: CompileRequest{Source: progOK, Options: Options{Scheme: "turbo"}}},
			http.StatusBadRequest, ClassUsage, 2},
		{"bad kind", RunRequest{CompileRequest: CompileRequest{Source: progOK, Options: Options{Kind: "xyz"}}},
			http.StatusBadRequest, ClassUsage, 2},
		{"bad engine", RunRequest{CompileRequest: CompileRequest{Source: progOK, Engine: "jit"}},
			http.StatusBadRequest, ClassUsage, 2},
		{"retired vm engine", RunRequest{CompileRequest: CompileRequest{Source: progOK, Engine: "vm"}},
			http.StatusBadRequest, ClassUsage, 2},
		{"budget over ceiling", RunRequest{CompileRequest: CompileRequest{Source: progOK},
			Budget: Budget{MaxInstructions: 1 << 62}}, http.StatusBadRequest, ClassUsage, 2},
		{"timeout over ceiling", RunRequest{CompileRequest: CompileRequest{Source: progOK},
			Budget: Budget{TimeoutMS: int64(time.Hour / time.Millisecond)}}, http.StatusBadRequest, ClassUsage, 2},
		{"oversized source", RunRequest{CompileRequest: CompileRequest{Source: "program p\n" + strings.Repeat("! pad\n", 400) + "end\n"}},
			http.StatusRequestEntityTooLarge, ClassTooLarge, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := do(t, s, "POST", "/run", c.body, nil)
			e := wantError(t, w, c.status, c.class)
			if e.NaccExit != c.exit {
				t.Errorf("nacc_exit = %d, want %d", e.NaccExit, c.exit)
			}
		})
	}
}

func TestBodyTooLarge(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 256 })
	big := fmt.Sprintf(`{"source": %q}`, strings.Repeat("x", 1024))
	w := do(t, s, "POST", "/run", big, nil)
	wantError(t, w, http.StatusRequestEntityTooLarge, ClassTooLarge)
}

func TestVerifyEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	var resp VerifyResponse
	w := do(t, s, "POST", "/verify", VerifyRequest{Source: progOK, Engine: "vmopt"}, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if !resp.OK || resp.NaccExit != 0 {
		t.Errorf("verify failed: %+v", resp)
	}
	if resp.Summary == "" {
		t.Error("summary empty")
	}
}

func TestReportEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("report measures the whole suite")
	}
	s := newTestServer(t, nil)
	var doc struct {
		Table           int              `json:"table"`
		Programs        []string         `json:"programs"`
		Characteristics []map[string]any `json:"characteristics"`
		Text            string           `json:"text"`
	}
	w := do(t, s, "GET", "/report?table=1", nil, &doc)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if doc.Table != 1 || len(doc.Programs) == 0 || len(doc.Characteristics) != len(doc.Programs) {
		t.Errorf("doc shape wrong: table %d, %d programs, %d rows", doc.Table, len(doc.Programs), len(doc.Characteristics))
	}
	if !strings.Contains(doc.Text, "Table 1") {
		t.Errorf("canonical text rendering missing: %q", doc.Text[:min(80, len(doc.Text))])
	}

	w = do(t, s, "GET", "/report?table=9", nil, nil)
	wantError(t, w, http.StatusBadRequest, ClassUsage)
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, nil)
	do(t, s, "POST", "/run", RunRequest{CompileRequest: CompileRequest{Source: progOK}}, nil)

	var health struct {
		Status string `json:"status"`
	}
	w := do(t, s, "GET", "/healthz", nil, &health)
	if w.Code != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz = %d %q", w.Code, health.Status)
	}

	var m metricsDoc
	w = do(t, s, "GET", "/metrics", nil, &m)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", w.Code)
	}
	if m.Requests.Run != 1 {
		t.Errorf("run counter = %d, want 1", m.Requests.Run)
	}
	if m.Pool.Jobs != 1 {
		t.Errorf("pool jobs = %d, want 1", m.Pool.Jobs)
	}
	if m.Cache.Misses != 1 {
		t.Errorf("cache misses = %d, want 1", m.Cache.Misses)
	}
	if m.Admission.Admitted != 1 {
		t.Errorf("admitted = %d, want 1", m.Admission.Admitted)
	}
}

func TestUnknownEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	w := do(t, s, "GET", "/nope", nil, nil)
	wantError(t, w, http.StatusNotFound, ClassUsage)
	// Wrong method on a known path also falls through to the typed 404.
	w = do(t, s, "GET", "/compile", nil, nil)
	wantError(t, w, http.StatusNotFound, ClassUsage)
}

// TestDegradedRun: trip the breaker by hand, then observe a request for
// the sick pair served degraded with an explicit marker.
func TestDegradedRun(t *testing.T) {
	s := newTestServer(t, nil)
	s.breaker.trip(nascent.ALL, nascent.EngineVMOpt)
	var resp RunResponse
	w := do(t, s, "POST", "/run", RunRequest{
		CompileRequest: CompileRequest{Source: progOK, Options: Options{Scheme: "all"}, Engine: "vmopt"},
	}, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if resp.Compile.Degraded == nil {
		t.Fatal("degraded marker missing on a tripped pair")
	}
	if resp.Compile.Scheme != "naive" || resp.Compile.Engine != "tree" {
		t.Errorf("served (%s, %s), want degraded (naive, tree)", resp.Compile.Scheme, resp.Compile.Engine)
	}
	// Semantics preserved: output matches the requested configuration's.
	prog, err := nascent.Compile(progOK, nascent.Options{BoundsChecks: true, Filename: "input.mf"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output != want.Output {
		t.Errorf("degraded output diverges: %q vs %q", resp.Output, want.Output)
	}
}

// TestDegradeLadder pins the breaker ladder: a tripped bytecode pair —
// vmopt, or vmrce and vmjit, its other names — serves on the reference
// configuration.
func TestDegradeLadder(t *testing.T) {
	for _, tc := range []struct {
		req                    string
		wantScheme, wantEngine string
	}{
		{req: "vmopt", wantScheme: "naive", wantEngine: "tree"},
		{req: "vmrce", wantScheme: "naive", wantEngine: "tree"},
		{req: "vmjit", wantScheme: "naive", wantEngine: "tree"},
	} {
		s := newTestServer(t, nil)
		e, err := nascent.ParseEngine(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		s.breaker.trip(nascent.LLS, e)
		var resp RunResponse
		w := do(t, s, "POST", "/run", RunRequest{
			CompileRequest: CompileRequest{Source: progOK, Options: Options{Scheme: "lls"}, Engine: tc.req},
		}, &resp)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", tc.req, w.Code, w.Body.String())
		}
		if resp.Compile.Degraded == nil || resp.Compile.Scheme != tc.wantScheme || resp.Compile.Engine != tc.wantEngine {
			t.Errorf("%s: served (%s, %s) degraded=%v, want (%s, %s)",
				tc.req, resp.Compile.Scheme, resp.Compile.Engine, resp.Compile.Degraded != nil, tc.wantScheme, tc.wantEngine)
		}
	}
}
