// Command rowserve is the simulation daemon: sweep specs in over
// HTTP/JSON, results out of a crash-safe, content-addressed batch
// queue.
//
//	rowserve -addr :8034 -journal queue.jsonl
//
//	curl -s -X POST localhost:8034/v1/sweeps \
//	  -H 'X-Tenant: alice' \
//	  -d '{"workload":"sps","param":"sharedfrac","values":[0.1,0.5,0.9]}'
//	curl -s localhost:8034/v1/sweeps/<id>/results
//	curl -s localhost:8034/v1/stats
//
// The journal IS the queue: every admitted sweep and every cell state
// transition is an appended record, so kill -9 at any point — mid
// journal append included — restarts into exactly the queue that was
// on disk: completed cells keep their results, unfinished ones re-run,
// and the final result set is byte-identical to an uninterrupted run
// (proven continuously by internal/serve/chaostest and the CI daemon
// smoke job). SIGTERM and SIGINT drain gracefully: admission stops,
// in-flight cells get -drain-grace to finish or are checkpointed as
// canceled, and the process exits 0 with a resumable queue.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"rowsim/internal/cli"
	"rowsim/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run prints only diagnostics: the daemon's output is its HTTP API.
func run(args []string, _, stderr io.Writer) (code int) {
	fs := cli.NewFlagSet("rowserve", stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8034", "listen address (host:port; port 0 picks a free port)")
		addrFile = fs.String("addr-file", "", "write the actual listen address to this file once serving (tests, scripts)")
		journal  = fs.String("journal", "rowserve.jsonl", "queue journal path (created if missing, recovered if present)")
		workers  = fs.Int("workers", 0, "worker pool size (<1 = GOMAXPROCS)")
		maxQueue = fs.Int("max-queue", 256, "total pending-cell bound; submissions over it get 429 + Retry-After")
		tenantQ  = fs.Int("tenant-queue", 0, "per-tenant pending-cell bound (<1 = max-queue/4, at least one full sweep)")
		timeout  = fs.Duration("timeout", 0, "per-attempt wall-clock deadline for one cell (0 = off)")
		retries  = fs.Int("retries", 3, "attempt budget per cell for transient failures (timeout, panic)")
		grace    = fs.Duration("drain-grace", 5*time.Second, "how long a drain waits for in-flight cells before checkpointing them")

		ckptEvery = fs.Uint64("checkpoint-every", 0, "write a durable per-cell checkpoint every N simulated cycles (0 = off); interrupted cells resume mid-run after crash or restart")
		ckptDir   = fs.String("checkpoint-dir", "", "per-cell checkpoint directory (default: <journal>.ckpt when -checkpoint-every is set)")

		prof = cli.AddProfile(fs)
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}

	if !prof.Start(stderr) {
		return 2
	}
	defer prof.Stop(&code, stderr)

	// SIGTERM (orchestrators) and SIGINT (Ctrl-C) both mean the same
	// thing here: drain gracefully, leave a resumable queue, exit 0.
	ctx, stop := cli.Context()
	defer stop()

	srv, err := serve.Open(serve.Config{
		Journal:     *journal,
		Workers:     *workers,
		MaxQueue:    *maxQueue,
		TenantQueue: *tenantQ,
		RunTimeout:  *timeout,
		MaxAttempts: *retries,
		DrainGrace:  *grace,

		CheckpointEvery: *ckptEvery,
		CheckpointDir:   *ckptDir,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	fmt.Fprintf(stderr, "rowserve: listening on %s, journal %s\n", ln.Addr(), *journal)

	hsrv := &http.Server{Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hsrv.Serve(ln) }()

	// Run blocks until the signal context is done and the drain
	// finishes; then the HTTP listener gets a bounded shutdown so
	// in-flight responses complete.
	runErr := srv.Run(ctx)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = hsrv.Shutdown(shutCtx)
	select {
	case err := <-httpErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, err)
			return 1
		}
	default:
	}
	if runErr != nil {
		fmt.Fprintln(stderr, runErr)
		return 1
	}
	fmt.Fprintln(stderr, "rowserve: drained; queue is resumable at", *journal)
	return 0
}
