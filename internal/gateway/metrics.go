package gateway

import (
	"scouts/internal/circuit"
	"scouts/internal/telemetry"
)

// gwEndpoints is the gateway's full route set; the spine pre-registers
// the per-endpoint series from this list, same contract as the serving
// layer: request-time recording is a prebuilt pointer.
var gwEndpoints = []string{
	"/v1/predict", "/v1/health", "/v1/reload", "/v1/drain", "/metrics",
}

// upstreamOutcomes classify one upstream attempt's result for
// scout_gw_upstream_requests_total: a bounded set instead of raw status
// codes so per-replica cardinality stays fixed.
var upstreamOutcomes = []string{"ok", "busy", "error", "5xx", "4xx"}

// replicaMetrics is one replica's slice of the gateway's series, held by
// pointer so the forwarding path records with atomic adds only.
type replicaMetrics struct {
	byOutcome map[string]*telemetry.Counter
	retries   *telemetry.Counter
	hedges    *telemetry.Counter
	hedgeWins *telemetry.Counter
	probes    *telemetry.Counter
	probeFail *telemetry.Counter
}

func (rm *replicaMetrics) outcome(name string) *telemetry.Counter {
	if c, ok := rm.byOutcome[name]; ok {
		return c
	}
	return rm.byOutcome["error"]
}

// gwMetrics is every series the gateway exports besides the spine's
// per-endpoint request series.
type gwMetrics struct {
	reg *telemetry.Registry

	replicas map[string]*replicaMetrics

	shed      *telemetry.Counter
	noReplica *telemetry.Counter
	upstream  *telemetry.Histogram
}

func newGwMetrics(replicas []*replica) *gwMetrics {
	reg := telemetry.NewRegistry()
	m := &gwMetrics{
		reg:      reg,
		replicas: make(map[string]*replicaMetrics, len(replicas)),
		shed: reg.Counter("scout_gw_requests_shed_total",
			"Client requests answered 429 because every candidate replica was saturated."),
		noReplica: reg.Counter("scout_gw_no_replica_total",
			"Client requests answered 503 because no replica could take them (breakers open or fleet draining)."),
		upstream: reg.Histogram("scout_gw_upstream_duration_seconds",
			"Latency of successful upstream attempts (the hedge-delay source).", nil),
	}
	const upHelp = "Upstream attempts by replica and outcome (ok, busy, error, 5xx, 4xx)."
	for _, r := range replicas {
		r := r
		name := r.cfg.Name
		rm := &replicaMetrics{
			byOutcome: make(map[string]*telemetry.Counter, len(upstreamOutcomes)),
			retries: reg.Counter("scout_gw_retries_total",
				"Retry attempts (second and later tries) by replica.",
				telemetry.L("replica", name)),
			hedges: reg.Counter("scout_gw_hedges_total",
				"Hedge requests launched against the replica.",
				telemetry.L("replica", name)),
			hedgeWins: reg.Counter("scout_gw_hedge_wins_total",
				"Hedge requests that beat the primary attempt.",
				telemetry.L("replica", name)),
			probes: reg.Counter("scout_gw_probes_total",
				"Active health probes sent to the replica.",
				telemetry.L("replica", name)),
			probeFail: reg.Counter("scout_gw_probe_failures_total",
				"Active health probes the replica failed.",
				telemetry.L("replica", name)),
		}
		for _, o := range upstreamOutcomes {
			rm.byOutcome[o] = reg.Counter("scout_gw_upstream_requests_total", upHelp,
				telemetry.L("replica", name), telemetry.L("outcome", o))
		}
		m.replicas[name] = rm
		reg.GaugeFunc("scout_gw_replica_breaker_state",
			"Replica circuit-breaker state: 0 closed, 1 half-open, 2 open.",
			func() float64 {
				switch r.breaker.State() {
				case circuit.StateOpen:
					return 2
				case circuit.StateHalfOpen:
					return 1
				default:
					return 0
				}
			},
			telemetry.L("replica", name))
		reg.CounterFunc("scout_gw_replica_breaker_trips_total",
			"Times the replica's circuit breaker has opened.",
			func() float64 { return float64(r.breaker.Trips()) },
			telemetry.L("replica", name))
		reg.GaugeFunc("scout_gw_replica_inflight",
			"Requests the gateway currently has outstanding to the replica.",
			func() float64 { return float64(r.inflight.Load()) },
			telemetry.L("replica", name))
		reg.GaugeFunc("scout_gw_replica_healthy",
			"Last active probe verdict: 1 healthy, 0 not.",
			func() float64 {
				if r.healthy.Load() {
					return 1
				}
				return 0
			},
			telemetry.L("replica", name))
		reg.GaugeFunc("scout_gw_replica_draining",
			"Whether the replica is draining: 1 yes, 0 no.",
			func() float64 {
				if r.draining.Load() {
					return 1
				}
				return 0
			},
			telemetry.L("replica", name))
	}
	return m
}

func (m *gwMetrics) replica(name string) *replicaMetrics {
	return m.replicas[name]
}
