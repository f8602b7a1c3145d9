// Command scoutd serves a PhyNet Scout's predictions over REST — the
// online half of the §6 deployment; scoutctl train is the offline half.
//
// Usage:
//
//	scoutd -store DIR [-addr :8080] [-seed 7] [-days 90] [-rate 10]
//	       [-max-inflight 64] [-request-timeout 10s] [-min-coverage 0.25]
//	       [-instance scoutd] [-access-log]
//
// -store points at the directory scoutctl train publishes into. scoutd
// serves its newest healthy scoutpack version, and POST /v1/reload
// re-reads the directory, so a version published later is picked up live.
// Each damaged file a load quarantines is logged by name and reason. With
// no servable version (no -store, an empty directory, or every file
// quarantined) scoutd exits non-zero, naming scoutctl train, before it
// builds the world. -seed, -days and -rate build the synthetic cloud whose
// monitoring the Scout pulls at request time; they must equal the ones
// the pack was trained with (scoutctl train logs the scoutd line to run),
// and nothing checks that yet.
//
// Endpoints:
//
//	GET  /v1/health
//	GET  /v1/model
//	GET  /metrics    Prometheus text exposition (see README "Observability")
//	POST /v1/reload
//	POST /v1/predict   {"title": ..., "body": ..., "components": [...], "time": h}
//	POST /v1/predict:batch   {"items": [<predict request>, ...]} (max 256 items)
//
// The server is configured for exposure to untrusted clients (request
// bodies are size-capped, unknown JSON fields rejected, and header and
// idle timeouts bound slow-client resource usage) and drains gracefully on
// SIGINT/SIGTERM so in-flight predictions complete before exit. Overload
// and degraded monitoring are first-class: -max-inflight sheds excess
// requests with 429 + Retry-After, -request-timeout deadline-bounds every
// handler, and -min-coverage makes predictions fall back to legacy routing
// when too few monitoring datasets are live (DESIGN.md §10).
//
// The process observes itself (DESIGN.md §11): GET /metrics exports
// per-endpoint request and latency series, prediction/fallback/imputation
// counters, model gauges and per-dataset circuit-breaker state — scoutd
// serves its monitoring through faults.NewBreaker so dataset outages trip
// visibly. -access-log streams one JSON line per request (with the
// request ID every response echoes in X-Request-Id) to stderr; -instance
// prefixes those request IDs so replicas never collide.
//
// Request-time featurization answers window statistics through the
// monitoring aggregate layer instead of copying raw points (DESIGN.md §7),
// keeping /v1/predict latency flat as telemetry history grows.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"scouts/internal/cloudsim"
	"scouts/internal/core"
	"scouts/internal/faults"
	"scouts/internal/httpx"
	"scouts/internal/serving"
	"scouts/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 7, "world seed")
	days := flag.Int("days", 90, "days of synthetic cloud history to serve monitoring from")
	rate := flag.Float64("rate", 10, "incidents per day")
	maxInflight := flag.Int("max-inflight", 64, "max concurrently-served requests; excess sheds with 429 (0 = unbounded)")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request deadline; overruns answer 503 (0 = none)")
	retryAfterBase := flag.Duration("retry-after-base", time.Second, "base Retry-After hint on 429 sheds; grows with sustained saturation")
	minCoverage := flag.Float64("min-coverage", 0.25, "monitoring-coverage floor below which predictions fall back (0 = disabled)")
	instance := flag.String("instance", "scoutd", "instance ID prefixed to request IDs (X-Request-Id)")
	accessLog := flag.Bool("access-log", false, "write one structured JSON line per request to stderr")
	storeDir := flag.String("store", "", "model store directory to serve from (required; scoutctl train publishes into it)")
	flag.Parse()

	logger := log.New(os.Stderr, "scoutd: ", log.LstdFlags)
	opts := servingOptions{
		maxInflight: *maxInflight, requestTimeout: *reqTimeout, minCoverage: *minCoverage,
		retryAfterBase: *retryAfterBase,
		instance:       *instance, accessLog: *accessLog,
		storeDir: *storeDir,
	}
	if err := run(*addr, *seed, *days, *rate, opts, logger); err != nil {
		logger.Fatal(err)
	}
}

// servingOptions carries the robustness knobs from flags into the server.
type servingOptions struct {
	maxInflight    int
	requestTimeout time.Duration
	minCoverage    float64
	retryAfterBase time.Duration
	instance       string
	accessLog      bool
	storeDir       string
}

func run(addr string, seed int64, days int, rate float64, opts servingOptions, logger *log.Logger) error {
	// The store is read before the world is built: with nothing to serve,
	// scoutd refuses at once.
	if opts.storeDir == "" {
		return errors.New("-store DIR is required: publish a model with `scoutctl train -store DIR`, then serve it with `scoutd -store DIR`")
	}
	store, err := serving.OpenStore(opts.storeDir, logger)
	if err == nil && store.Versions() == 0 {
		err = errors.New("no servable model version")
	}
	if err != nil {
		return fmt.Errorf("store %s: %w; publish one with `scoutctl train -store %s`", opts.storeDir, err, opts.storeDir)
	}

	logger.Printf("generating %d days of synthetic cloud history (seed %d)", days, seed)
	gen := cloudsim.New(cloudsim.Params{Seed: seed, Days: days, IncidentsPerDay: rate})
	trace := gen.Generate()
	logger.Printf("%d incidents generated", trace.Len())

	// Serve through a circuit breaker: request-time featurization must
	// degrade in bounded time when a dataset goes dark, and the breaker's
	// per-dataset state is part of the /metrics surface
	// (scout_breaker_state, scout_breaker_trips_total).
	source := faults.NewBreaker(gen.Telemetry(), faults.BreakerParams{})
	srv := serving.NewServer(gen.Topology(), source, store, logger)
	srv.MaxInFlight = opts.maxInflight
	srv.RequestTimeout = opts.requestTimeout
	srv.RetryAfterBase = opts.retryAfterBase
	srv.Degradation = core.DegradationPolicy{MinCoverage: opts.minCoverage}
	srv.InstanceID = opts.instance
	if opts.accessLog {
		al := telemetry.NewLogger(os.Stderr, telemetry.F("component", "scoutd"), telemetry.F("instance", opts.instance))
		al.Now = time.Now
		srv.Access = al
	}
	if err := srv.Reload(); err != nil {
		return err
	}
	// From here on POST /v1/reload re-reads the directory, so a version
	// published by scoutctl train is picked up live.
	srv.ReloadStore = func() (*serving.Store, error) { return serving.OpenStore(opts.storeDir, logger) }

	return httpx.Serve(context.Background(), addr, srv.Handler(), logger, nil)
}
