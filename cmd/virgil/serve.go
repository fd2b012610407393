package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/serve"
)

// serveCmd runs the compiler as an HTTP JSON service until SIGINT or
// SIGTERM, then drains in-flight requests (bounded by -drain-timeout)
// and exits 0 on a clean drain. With -peers the instance joins a
// static fleet: /run and /compile are routed to each program's
// consistent-hash owner with retry, circuit breaking, optional
// hedging, and graceful degradation to local execution.
func serveCmd(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	maxConcurrent := fs.Int("max-concurrent", 0, "max concurrently compiling requests (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission wait-queue depth (0 = 2x max-concurrent)")
	defaultTimeout := fs.Duration("default-timeout", 0, "per-request deadline when the client sets none (0 = 10s)")
	maxTimeout := fs.Duration("max-timeout", 0, "ceiling on client-requested deadlines (0 = 60s)")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
	engine := fs.String("engine", "", "execution engine for /run: bytecode (default) or switch")
	cacheSize := fs.Int("cache-size", 0, "warm-compilation cache entries (0 = 64, negative disables)")
	maxHeap := fs.Int64("max-heap", 0, "modeled heap budget in bytes per /run (0 = 64 MiB)")
	quarantineAfter := fs.Int("quarantine-after", 0, "bytecode-engine fallbacks before a program is pinned to the switch interpreter (0 = 3, negative disables)")
	tierAfter := fs.Int("tier-after", 0, "profiled runs before a warm program is recompiled with its profile and tiered up (0 = 8, negative disables)")
	tenantConcurrent := fs.Int("tenant-concurrent", 0, "per-tenant concurrent-request cap (0 = no cap)")
	tenantStepsPerSec := fs.Int64("tenant-steps-per-sec", 0, "per-tenant sustained step budget (0 = no cap)")
	tenantHeapPerSec := fs.Int64("tenant-heap-per-sec", 0, "per-tenant sustained modeled-heap budget in bytes/sec (0 = no cap)")
	maxRequestBytes := fs.Int64("max-request-bytes", 0, "request body size limit in bytes (0 = 4 MiB); oversize bodies get a structured 413")
	peers := fs.String("peers", "", "comma-separated fleet base URLs, self included; enables consistent-hash peer routing")
	self := fs.String("self", "", "this instance's own base URL as it appears in -peers (default http://<addr>)")
	peerTimeout := fs.Duration("peer-timeout", 0, "per-forward-attempt timeout (0 = 2s)")
	peerAttempts := fs.Int("peer-attempts", 0, "forward attempts before degrading to local execution (0 = 3)")
	if err := fs.Parse(argv); err != nil {
		return exitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "virgil serve: unexpected arguments:", fs.Args())
		return exitUsage
	}

	s := serve.New(serve.Config{
		MaxConcurrent:       *maxConcurrent,
		QueueDepth:          *queue,
		DefaultTimeout:      *defaultTimeout,
		MaxTimeout:          *maxTimeout,
		Engine:              *engine,
		CacheSize:           *cacheSize,
		MaxHeapBytes:        *maxHeap,
		QuarantineAfter:     *quarantineAfter,
		TierAfter:           *tierAfter,
		TenantMaxConcurrent: *tenantConcurrent,
		TenantStepsPerSec:   *tenantStepsPerSec,
		TenantHeapPerSec:    *tenantHeapPerSec,
		MaxBodyBytes:        *maxRequestBytes,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "virgil serve:", err)
		return exitUsage
	}
	fmt.Fprintf(stdout, "virgil serve: listening on http://%s\n", l.Addr())
	if faultinject.Enabled() {
		fmt.Fprintln(stdout, "virgil serve: WARNING: fault injection armed via VIRGIL_FAULT")
	}

	handler := s.Handler()
	if *peers != "" {
		selfURL := *self
		if selfURL == "" {
			selfURL = "http://" + l.Addr().String()
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, strings.TrimSuffix(p, "/"))
			}
		}
		rt := cluster.New(cluster.Config{
			Self:         selfURL,
			Peers:        peerList,
			PeerTimeout:  *peerTimeout,
			Attempts:     *peerAttempts,
			MaxBodyBytes: *maxRequestBytes,
		}, s)
		handler = rt.Handler()
		fmt.Fprintf(stdout, "virgil serve: fleet routing enabled, self=%s peers=%d\n", selfURL, len(peerList))
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ServeWith(l, handler) }()

	select {
	case sig := <-sigs:
		fmt.Fprintf(stdout, "virgil serve: received %v; draining (up to %v)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "virgil serve: drain incomplete:", err)
			<-serveErr
			return exitDiag
		}
		<-serveErr
		fmt.Fprintln(stdout, "virgil serve: drained cleanly")
		return exitOK
	case err := <-serveErr:
		fmt.Fprintln(stderr, "virgil serve:", err)
		return exitICE
	}
}
