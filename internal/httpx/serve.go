package httpx

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
)

// Serve runs handler on addr until ctx ends or SIGINT/SIGTERM arrives,
// then drains: onDrain (may be nil) runs first — the daemon's chance to
// stop taking new upstream work — and in-flight requests get 15 s to
// finish. A bare http.ListenAndServe has no header timeout (one
// slow-writing client per connection holds a goroutine forever —
// slowloris) and no way to drain on shutdown, so the server is configured
// explicitly. A listen failure is returned as is; a clean drain returns
// nil.
func Serve(ctx context.Context, addr string, handler http.Handler, logger *log.Logger, onDrain func()) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          logger,
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", addr)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Printf("signal received; draining in-flight requests")
	if onDrain != nil {
		onDrain()
	}
	shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("drained; bye")
	return nil
}
