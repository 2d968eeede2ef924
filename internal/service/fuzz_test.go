package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzServiceRequest throws arbitrary bodies at the request decoder and
// pipeline: malformed JSON, type confusion, oversized payloads, bogus
// engines and budgets. The contract under fuzz:
//
//   - the server never panics (the contained-panic counter stays zero);
//   - every failure is a typed error body with a non-empty class;
//   - nothing comes back 5xx — garbage input is always the tenant's
//     fault, classified 4xx (2xx for inputs that happen to be valid).
//
// Ceilings are tiny so accidentally-valid programs stay cheap.
func FuzzServiceRequest(f *testing.F) {
	seeds := []string{
		`{"source": "program p\n  real a(4)\n  integer i\n  do i = 1, 4\n    a(i) = 1.0\n  enddo\n  print a(1)\nend\n"}`,
		`{"source": "program p\nend\n", "engine": "vmopt", "options": {"scheme": "all"}}`,
		`{"source": ""}`,
		`{"source": 42}`,
		`{"source": "program p\nend\n", "bogus": true}`,
		`{"source": "program p\nend\n", "engine": "jit"}`,
		`{"source": "program p\nend\n", "budget": {"max_instructions": 999999999999}}`,
		`{"source": "program p\nend\n", "budget": {"timeout_ms": -5}}`,
		`{"source": "program p\nend\n"} trailing`,
		`{"source": "` + strings.Repeat("x", 3000) + `"}`,
		`not json at all`,
		`{`,
		``,
		`null`,
		`[]`,
		`{"source": "program p\n  real a(2)\n  a(9) = 1.0\nend\n"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	srv := New(Config{
		MaxBodyBytes:   2048,
		MaxSourceBytes: 1024,
		Ceilings: Ceilings{
			MaxInstructions: 200_000,
			MaxArrayCells:   4096,
			MaxOutputBytes:  4096,
			MaxTimeout:      2 * time.Second,
		},
		Logf: func(string, ...any) {},
	})

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/run", "/compile", "/verify"} {
			req := httptest.NewRequest("POST", path, bytes.NewReader(body))
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, req)

			if n := srv.nPanics.Load(); n != 0 {
				t.Fatalf("%s: contained panic (count %d) on body %q", path, n, body)
			}
			if w.Code >= 500 {
				t.Fatalf("%s: status %d on garbage input %q: %s", path, w.Code, body, w.Body.String())
			}
			if w.Code >= 400 {
				var eb errorBody
				if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error == nil {
					t.Fatalf("%s: %d response is not a typed error body: %q", path, w.Code, w.Body.String())
				}
				if eb.Error.Class == "" {
					t.Fatalf("%s: error body has empty class: %q", path, w.Body.String())
				}
				if eb.Error.Status != w.Code {
					t.Fatalf("%s: error.status %d != HTTP %d", path, eb.Error.Status, w.Code)
				}
			}
		}
	})
}
