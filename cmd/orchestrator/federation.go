package main

// The -federation N daemon mode: assemble N member clusters behind one
// federation tier on the wall clock and serve the /api/v2/federation/ REST
// surface. The single-cluster path in main.go is untouched; this file only
// runs when the flag is set.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	overbook "repro"
	"repro/internal/invariant"
	"repro/internal/restapi"
)

func runFederation(addr string, n int, epoch time.Duration, audit bool) {
	fcfg := overbook.FederationConfig{
		Epoch: epoch,
		Audit: audit,
	}
	if audit {
		fcfg.AuditOnViolation = func(v invariant.Violation) {
			log.Printf("FEDERATION INVARIANT VIOLATION: %s", v)
		}
	}
	sys, err := overbook.NewLiveFederation(overbook.FederationOptions{
		Clusters:   overbook.DefaultFederationClusters(n),
		Federation: fcfg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "orchestrator:", err)
		os.Exit(1)
	}
	sys.Federation.Start()

	api := restapi.NewFederationServer(sys.Federation)
	mux := http.NewServeMux()
	mux.Handle("/api/v2/federation/", api)
	mux.Handle("/healthz", api)

	log.Printf("federated slicing orchestrator listening on %s (clusters=%d epoch=%v audit=%v)",
		addr, n, epoch, audit)
	base := baseURL(addr)
	log.Printf("registry: %s/api/v2/federation/clusters  spans: %s/api/v2/federation/slices", base, base)

	srv := &http.Server{Addr: addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case sig := <-sigCh:
		log.Printf("%s: shutting down", sig)
	}
	// Drain HTTP first so no in-flight submission races the barrier and
	// member control loops being cancelled, then stop the federation.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: http: %v", err)
	}
	sys.Federation.Stop()
}
