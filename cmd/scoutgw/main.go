// Command scoutgw fronts a fleet of scoutd replicas of one team's Scout:
// it consistent-hash-shards incidents across the fleet with bounded-load
// spillover, retries failed attempts on different replicas with jittered
// backoff, hedges tail-latency requests, and circuit-breaks replicas that
// keep failing (DESIGN.md §14).
//
// Usage:
//
//	scoutgw -addr :8090 \
//	        -replica a=phynet=http://127.0.0.1:8081 \
//	        -replica b=phynet=http://127.0.0.1:8082 \
//	        [-max-attempts 3] [-per-try-timeout 5s] [-replica-budget 32] \
//	        [-hedge-after 0] [-probe-interval 1s] [-seed 1]
//
// Each -replica is name=team=url. Every replica must name the same team —
// the fleet is that team's failover set — and an http:// or https:// URL
// with a host; scoutgw exits non-zero before it listens otherwise.
// -hedge-after 0 derives the hedge delay from the observed upstream p99; a
// negative value disables hedging.
//
// Endpoints:
//
//	POST /v1/predict[?team=T] proxy to the incident's shard (response verbatim);
//	                          a team other than the fleet's is a 404
//	GET  /v1/health           fleet + per-replica breaker/drain state
//	POST /v1/reload           fan reload out to every replica (no retries)
//	POST /v1/drain            {"replica": "a"} — graceful removal (restore: true re-adds)
//	GET  /metrics             Prometheus text exposition of scout_gw_* series
//
// On SIGINT/SIGTERM the gateway marks every replica draining (no new
// upstream work), stops its prober, and drains in-flight client
// requests before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"scouts/internal/faults"
	"scouts/internal/gateway"
	"scouts/internal/httpx"
)

// replicaFlags collects repeated -replica name=team=url values.
type replicaFlags []gateway.ReplicaConfig

func (r *replicaFlags) String() string {
	parts := make([]string, len(*r))
	for i, rc := range *r {
		parts[i] = rc.Name + "=" + rc.Team + "=" + rc.URL
	}
	return strings.Join(parts, ",")
}

func (r *replicaFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 3)
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return fmt.Errorf("want name=team=url, got %q", v)
	}
	*r = append(*r, gateway.ReplicaConfig{Name: parts[0], Team: parts[1], URL: parts[2]})
	return nil
}

func main() {
	var replicas replicaFlags
	addr := flag.String("addr", ":8090", "listen address")
	flag.Var(&replicas, "replica", "replica as name=team=url (repeatable)")
	maxAttempts := flag.Int("max-attempts", 3, "max tries per retriable request, first attempt included")
	perTryTimeout := flag.Duration("per-try-timeout", 5*time.Second, "deadline per upstream attempt")
	replicaBudget := flag.Int64("replica-budget", 32, "max in-flight requests per replica; beyond it the shard spills")
	hedgeAfter := flag.Duration("hedge-after", 0, "hedge delay (0 = adaptive from observed p99, negative = no hedging)")
	probeInterval := flag.Duration("probe-interval", time.Second, "active health-probe period")
	breakerTrip := flag.Int("breaker-trip", 5, "consecutive failures that open a replica's breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 2*time.Second, "open-breaker cooldown before a probe is allowed")
	seed := flag.Int64("seed", 1, "backoff-jitter seed")
	flag.Parse()

	logger := log.New(os.Stderr, "scoutgw: ", log.LstdFlags)
	if err := run(*addr, gateway.Config{
		Replicas:      replicas,
		MaxAttempts:   *maxAttempts,
		PerTryTimeout: *perTryTimeout,
		ReplicaBudget: *replicaBudget,
		HedgeAfter:    *hedgeAfter,
		ProbeInterval: *probeInterval,
		Breaker:       faults.ReqBreakerParams{Trip: *breakerTrip, Cooldown: *breakerCooldown},
		Seed:          *seed,
		Logger:        logger,
	}, logger); err != nil {
		logger.Fatal(err)
	}
}

func run(addr string, cfg gateway.Config, logger *log.Logger) error {
	gw, err := gateway.New(cfg)
	if err != nil {
		return err
	}
	logger.Printf("fronting %d replica(s) of team %s", len(cfg.Replicas), cfg.Replicas[0].Team)

	proberCtx, stopProber := context.WithCancel(context.Background())
	proberDone := make(chan struct{})
	go func() {
		defer close(proberDone)
		gw.RunProber(proberCtx)
	}()

	err = httpx.Serve(context.Background(), addr, gw.Handler(), logger, func() {
		gw.DrainAll()
		stopProber()
	})
	stopProber()
	<-proberDone
	return err
}
