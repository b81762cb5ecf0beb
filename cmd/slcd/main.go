// Command slcd is the streaming compression daemon: the codec registry,
// trained-table cache and compression pipeline served over HTTP.
//
//	slcd -addr :8080 -store /var/cache/slc
//
// Endpoints (see internal/serving and the README quick-start):
//
//	POST /v1/compress    compress data block-by-block under a codec
//	POST /v1/decompress  decode blocks under a codec
//	POST /v1/evaluate    run data or a workload through the real pipeline
//	GET  /v1/codecs      registered codecs and training profiles
//	GET  /healthz        200 while serving, 503 while draining
//	GET  /metrics        Prometheus text metrics
//
// On SIGINT/SIGTERM the daemon drains gracefully: the listener closes
// first, in-flight requests run to completion (bounded by -drain-timeout),
// and only then does the process exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serving"
	"repro/internal/storeflag"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable daemon body. ready, when non-nil, receives the bound
// listener address once the server is accepting connections (tests pass
// ":0" and dial whatever was assigned).
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("slcd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("parallel", 0, "per-request worker fan-out (0 = one per core)")
	maxInFlight := fs.Int("max-inflight", serving.DefaultMaxInFlight, "bound on concurrently admitted requests (beyond it: 429)")
	reqTimeout := fs.Duration("request-timeout", serving.DefaultRequestTimeout, "per-request execution timeout")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "bound on graceful drain after SIGTERM")
	store := storeflag.RegisterOn(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if extra := fs.Args(); len(extra) > 0 {
		fmt.Fprintf(stderr, "slcd: unexpected arguments: %v\n", extra)
		fs.Usage()
		return 2
	}

	core := serving.NewCore(serving.Config{Workers: *workers, MaxInFlight: *maxInFlight})
	st, err := store.Open()
	if err != nil {
		fmt.Fprintln(stderr, "slcd:", err)
		return 1
	}
	core.SetStore(st)

	server := &http.Server{
		Handler:           serving.NewHandler(core, *reqTimeout),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "slcd:", err)
		return 1
	}
	fmt.Fprintf(stdout, "slcd: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	served := make(chan error, 1)
	go func() { served <- server.Serve(ln) }()

	select {
	case err := <-served:
		// The listener failed outright; nothing is being served.
		fmt.Fprintln(stderr, "slcd:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: refuse new admissions, then Shutdown — which closes
	// the listener first and waits for in-flight requests to complete.
	fmt.Fprintln(stdout, "slcd: draining")
	core.StartDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := server.Shutdown(dctx); err != nil {
		fmt.Fprintln(stderr, "slcd: drain:", err)
		return 1
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "slcd:", err)
		return 1
	}
	fmt.Fprintln(stdout, "slcd: drained")
	return 0
}
