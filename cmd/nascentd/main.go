// Command nascentd is the Nascent-Go compile-and-eval service: a
// long-running, hardened HTTP server over the Kolte–Wolfe pipeline.
//
// Endpoints (see docs/SERVICE.md for schemas):
//
//	POST /compile   compile one MF program (content-addressed cache)
//	POST /run       compile and execute under clamped budgets
//	POST /verify    differential soundness oracle over all variants
//	GET  /report    the paper's tables as JSON (+ canonical text)
//	GET  /healthz   liveness and drain state
//	GET  /metrics   service, admission, cache, breaker, audit counters
//	POST /drill     scoped chaos drill (requires -allow-drill)
//
// Robustness properties:
//
//   - admission control: at most -max-concurrent requests execute, at
//     most -max-queue wait; the rest shed with 429 + Retry-After
//   - per-request budgets clamped by server ceilings; deadlines
//     propagate into both engines' poll points
//   - each request compiles and runs once, on its own goroutine; its
//     request timeout is its only deadline, and a panic is a typed
//     internal error
//   - SIGTERM/SIGINT/SIGHUP drain gracefully: stop admitting, finish
//     or cancel in-flight work within -drain-timeout
//   - -progcache dir persists compiled bytecode programs on disk
//     (content-addressed, CRC-sealed): a restarted server answers
//     /compile and /run for known programs without parsing source; an
//     entry is checked where it is read, and a damaged one is unlinked
//     and rewritten by the recompile
//   - -audit-every N compares every Nth /run, off the hot path, with
//     the tree reference engine's outcome (stored per request shape,
//     recomputed on any mismatch); a divergence is a typed
//     SelfAuditViolation that trips the pair's breaker: the pair is
//     served degraded for -breaker-cooldown
//   - -chaos arms a deterministic fault-injection spec in this
//     process, for soak drills
//
// Usage:
//
//	nascentd [-addr :8375] [-allow-drill] [flags]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nascent/internal/chaos"
	"nascent/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("nascentd", flag.ContinueOnError)
	addr := fs.String("addr", ":8375", "listen address")
	maxConcurrent := fs.Int("max-concurrent", 16, "max requests executing at once")
	maxQueue := fs.Int("max-queue", 64, "max requests waiting for a slot before shedding")
	cacheEntries := fs.Int("cache", 256, "compiled-program cache capacity (entries)")
	maxSource := fs.Int("max-source-bytes", 1<<20, "max program source size")
	maxInstr := fs.Uint64("ceil-instructions", 500e6, "per-run instruction budget ceiling")
	maxCells := fs.Int64("ceil-cells", 64<<20, "per-run array cell ceiling")
	maxTimeout := fs.Duration("ceil-timeout", 30*time.Second, "per-run wall-clock ceiling")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful drain deadline on SIGTERM")
	allowDrill := fs.Bool("allow-drill", false, "enable POST /drill (chaos fault injection)")
	breakerCooldown := fs.Duration("breaker-cooldown", 30*time.Second, "how long a (scheme, engine) pair tripped by the self-audit is served degraded")
	progCacheDir := fs.String("progcache", "", "disk-backed compiled-program cache directory (warm restarts skip the frontend)")
	auditEvery := fs.Int("audit-every", 16, "compare every Nth /run with the tree reference engine's observables (0 = off)")
	chaosSpec := fs.String("chaos", "", `arm deterministic fault injection "seed:rate[:site,...]" in this process`)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: nascentd [flags]")
		return 2
	}
	if *chaosSpec != "" {
		spec, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nascentd: -chaos: %v\n", err)
			return 2
		}
		chaos.Enable(spec)
	}
	cfg := service.Config{
		MaxConcurrent:   *maxConcurrent,
		MaxQueue:        *maxQueue,
		CacheEntries:    *cacheEntries,
		ProgCacheDir:    *progCacheDir,
		MaxSourceBytes:  *maxSource,
		DrainTimeout:    *drainTimeout,
		AllowDrill:      *allowDrill,
		BreakerCooldown: *breakerCooldown,
		AuditEvery:      *auditEvery,
	}
	cfg.Ceilings.MaxInstructions = *maxInstr
	cfg.Ceilings.MaxArrayCells = *maxCells
	cfg.Ceilings.MaxTimeout = *maxTimeout

	srv := service.New(cfg)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("nascentd: listening on %s (drill=%v, max-concurrent=%d, queue=%d)",
			*addr, *allowDrill, *maxConcurrent, *maxQueue)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	select {
	case sig := <-sigCh:
		log.Printf("nascentd: %v: draining (deadline %s)", sig, *drainTimeout)
		// Drain first: the gate flips to 503, in-flight work finishes or
		// is cancelled at the drain deadline (engine poll points make
		// cancellation prompt). Then shut the listener down; handlers
		// have already returned, so Shutdown is quick.
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout+2*time.Second)
		defer cancel()
		srv.Drain(dctx)
		if err := httpSrv.Shutdown(dctx); err != nil {
			log.Printf("nascentd: shutdown: %v", err)
			return 1
		}
		log.Printf("nascentd: drained cleanly")
		return 0
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("nascentd: %v", err)
			return 1
		}
		return 0
	}
}
