// Command spotlightd is the co-design job server: the Spotlight search
// and the paper's experiment harness behind an HTTP/JSON API, so many
// searches share one process, one memo cache, and one persistent
// evaluation journal. Jobs queue FIFO onto a bounded worker pool;
// per-job trace events stream over SSE in the same JSONL taxonomy the
// CLIs' -trace flag writes; /metrics and /debug/pprof/* serve live
// introspection. Results are bit-identical to the CLI path — the server
// and the CLIs run the same internal/engine orchestration.
//
// Examples:
//
//	spotlightd -addr 127.0.0.1:8077 -jobs 2 -cache-dir /var/cache/spotlight
//	curl -s localhost:8077/jobs -d '{"kind":"experiment","steps":["fig6"],"eval":"sim,cache"}'
//	curl -sN localhost:8077/jobs/job-1/trace
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"spotlight/internal/engine"
	"spotlight/internal/obs"
	"spotlight/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spotlightd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:8077", "listen address for the job API, /metrics, and /debug/pprof/* (\":0\" picks a port)")
		jobs     = flag.Int("jobs", 2, "jobs run concurrently; further submissions queue FIFO")
		cacheDir = flag.String("cache-dir", "", "persist evaluation results to a crash-safe journal in this directory, shared by every job (results are bit-identical warm or cold)")
		drain    = flag.Duration("drain", 30*time.Second, "how long a shutdown signal waits for running jobs before canceling them")
	)
	flag.Parse()

	// One registry serves /metrics; its tracer sees every job's events
	// and the shared pipelines' cache traffic, so concurrent duplicate
	// jobs surface as trace.cache.hit counters.
	reg := obs.NewRegistry()
	runner := engine.NewRunner(engine.RunnerConfig{
		Concurrency: *jobs,
		CacheDir:    *cacheDir,
		Tracer:      obs.NewMetricsTracer(reg),
	})
	srv := serve.New(runner, reg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hsrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hsrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "spotlightd: serving on http://%s (submit: POST /jobs; metrics: /metrics)\n", ln.Addr())

	// SIGINT/SIGTERM drain cooperatively: stop accepting jobs, let
	// running ones finish (up to -drain), flush the cache journals, and
	// only then stop the HTTP server — so trace subscribers see their
	// streams end rather than drop.
	ctx, stop := engine.ShutdownContext(context.Background())
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(os.Stderr, "spotlightd: shutting down: draining jobs (up to %s)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := runner.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "spotlightd: disk cache:", err)
	}
	httpCtx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	return hsrv.Shutdown(httpCtx)
}
