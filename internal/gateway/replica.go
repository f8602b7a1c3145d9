package gateway

import (
	"net/url"
	"sync/atomic"

	"scouts/internal/circuit"
)

// ReplicaConfig names one scoutd replica in the fleet: which team's
// Scout it serves and where it listens.
type ReplicaConfig struct {
	// Name identifies the replica in metrics, drain calls and
	// fleet_health blocks. Must be unique across the fleet.
	Name string `json:"name"`
	// Team is the Scout team the replica serves. Every replica of a fleet
	// serves the same team: the fleet is that team's failover set.
	Team string `json:"team"`
	// URL is the replica's base URL (http://host:port).
	URL string `json:"url"`
}

// replica is one backend's runtime state: the circuit breaker that
// decides whether it is trusted, the bounded-load in-flight budget, the
// drain flag, and the last active-probe verdict.
type replica struct {
	cfg     ReplicaConfig
	breaker *circuit.ReqBreaker
	// bit is the replica's bit in a round's tried set: 1 << its config
	// index, which is its index on the ring.
	bit uint64
	// urls holds cfg.URL joined with each of upstreamPaths, built once;
	// nameHeader is the X-Scout-Replica value every relayed answer of this
	// replica carries. Both are read-only.
	urls       map[string]*url.URL
	nameHeader []string

	// inflight counts requests the gateway currently has outstanding to
	// this replica; the bounded-load placement admits a request only while
	// inflight < budget, so one hot shard spills to the next ring
	// candidate instead of queueing here.
	inflight atomic.Int64
	// draining marks the replica as leaving the fleet: no new requests,
	// in-flight ones finish. Set by POST /v1/drain and by shutdown.
	draining atomic.Bool
	// healthy is the last active /v1/health probe's verdict; informational
	// (fleet_health, /v1/health) — the breaker is the routing gate.
	healthy atomic.Bool
}

func (r *replica) acquire(budget int64) bool {
	if r.inflight.Add(1) > budget {
		r.inflight.Add(-1)
		return false
	}
	return true
}

func (r *replica) release() { r.inflight.Add(-1) }

// health is the replica's row in /v1/health and the /v1/drain answer.
func (r *replica) health() ReplicaHealth {
	return ReplicaHealth{
		Name:    r.cfg.Name,
		Breaker: string(r.breaker.State()), Trips: r.breaker.Trips(),
		Draining: r.draining.Load(), Healthy: r.healthy.Load(),
		InFlight: int(r.inflight.Load()),
	}
}

// Skip reasons used in fleet_health blocks and error bodies; mirrors the
// DataHealth contract of naming *why* an answer is partial.
const (
	skipDraining    = "draining"
	skipBreakerOpen = "breaker-open"
	skipSaturated   = "saturated"
	skipUnreachable = "unreachable"
)

// ReplicaHealth is one replica's row in /v1/health.
type ReplicaHealth struct {
	Name     string `json:"name"`
	Breaker  string `json:"breaker"`
	Trips    int    `json:"trips"`
	Draining bool   `json:"draining,omitempty"`
	Healthy  bool   `json:"healthy"`
	InFlight int    `json:"in_flight"`
}

// FleetSkip names one replica a degraded answer had to route around, and
// why.
type FleetSkip struct {
	Replica string `json:"replica"`
	Reason  string `json:"reason"`
}

// FleetHealth is the fleet-side sibling of the serving layer's
// DataHealthInfo: every failed answer carries one, naming which replicas
// were skipped and why, so "the fleet degraded" is an explicit part of
// the contract rather than a silent quality drop.
type FleetHealth struct {
	ReplicasTotal int         `json:"replicas_total"`
	ReplicasUp    int         `json:"replicas_up"`
	Degraded      bool        `json:"degraded"`
	Skipped       []FleetSkip `json:"skipped,omitempty"`
}
