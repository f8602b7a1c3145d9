package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"syscall"
	"time"

	"scouts/internal/serving"
)

// FleetReport is the JSON document a -fleet run emits: the usual load
// report (driven through a scoutgw gateway) plus the gateway's own
// resilience telemetry and the kill-test verdict. The run's contract is
// the fleet SLO: with a replica killed mid-run, every client request
// must still end in an orderly answer — success, a client error, or an
// honored 429 — never a transport failure or a 5xx.
type FleetReport struct {
	Report
	// KillPID / KillAfterSec describe the mid-run fault injection: the
	// process that was sent SIGTERM and when. Killed confirms the signal
	// was delivered.
	KillPID      int     `json:"kill_pid,omitempty"`
	KillAfterSec float64 `json:"kill_after_sec,omitempty"`
	Killed       bool    `json:"killed,omitempty"`
	// GatewayRetries/Hedges/HedgeWins/BreakerTrips are summed from the
	// gateway's final /metrics scrape — the server-side evidence of how
	// the fleet absorbed the fault (client-side Retries in the embedded
	// Report count 429 re-issues; these count the gateway's own
	// failovers).
	GatewayRetries int `json:"gateway_retries"`
	Hedges         int `json:"hedges"`
	HedgeWins      int `json:"hedge_wins"`
	BreakerTrips   int `json:"breaker_trips"`
	// GatewayMetrics is the final scrape, parsed (scout_gw_* series).
	GatewayMetrics map[string]float64 `json:"gateway_metrics,omitempty"`
	SLO            FleetSLOResult     `json:"slo"`
}

// FleetSLOResult is the kill-test verdict: zero failed non-shed
// requests, or the violations saying otherwise.
type FleetSLOResult struct {
	FailedNonShed int      `json:"failed_non_shed"`
	Pass          bool     `json:"pass"`
	Violations    []string `json:"violations,omitempty"`
}

// runFleet drives a scoutgw gateway with predict traffic, optionally
// SIGTERMs a replica process partway through, and judges the run against
// the zero-failed-non-shed SLO. A gateway fronts one team, so requests
// name none.
func runFleet(client *http.Client, baseURL string, conc int,
	duration time.Duration, killPID int, killAfter time.Duration, reqs []serving.PredictRequest) (FleetReport, error) {
	if len(reqs) == 0 {
		return FleetReport{}, fmt.Errorf("empty request corpus")
	}
	var payloads [][]byte
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return FleetReport{}, err
		}
		payloads = append(payloads, b)
	}

	fr := FleetReport{KillPID: killPID, KillAfterSec: killAfter.Seconds()}
	killed := make(chan bool, 1)
	if killPID > 0 {
		go func() {
			time.Sleep(killAfter)
			killed <- syscall.Kill(killPID, syscall.SIGTERM) == nil
		}()
	} else {
		killed <- false
	}

	fr.Report = drive(client, baseURL, "/v1/predict", payloads, 1, conc, duration)
	fr.Mode = "fleet"
	fr.Killed = <-killed

	// The gateway's own telemetry is half the evidence: how many
	// failovers, hedges and breaker trips the fault cost the fleet.
	if m, err := scrapeMetrics(client, baseURL); err == nil {
		fr.GatewayMetrics = m
		fr.GatewayRetries = int(sumSeries(m, "scout_gw_retries_total"))
		fr.Hedges = int(sumSeries(m, "scout_gw_hedges_total"))
		fr.HedgeWins = int(sumSeries(m, "scout_gw_hedge_wins_total"))
		fr.BreakerTrips = int(sumSeries(m, "scout_gw_replica_breaker_trips_total"))
	}

	fr.SLO = judgeFleet(&fr)
	return fr, nil
}

// judgeFleet renders the kill-test verdict: transport errors and 5xx
// answers are failures; 200s, 4xx, and honored/shed 429s are not.
func judgeFleet(fr *FleetReport) FleetSLOResult {
	res := FleetSLOResult{FailedNonShed: fr.Errors}
	for code, n := range fr.StatusCounts {
		if strings.HasPrefix(code, "5") {
			res.FailedNonShed += n
		}
	}
	if res.FailedNonShed > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%d request(s) failed outside the shed path", res.FailedNonShed))
	}
	if fr.Requests == 0 {
		res.Violations = append(res.Violations, "no requests completed")
	}
	if fr.KillPID > 0 && !fr.Killed {
		res.Violations = append(res.Violations,
			fmt.Sprintf("kill signal to pid %d was not delivered", fr.KillPID))
	}
	res.Pass = len(res.Violations) == 0
	return res
}

// sumSeries totals every sample of one metric family across its label
// sets (the per-replica series of a gateway counter).
func sumSeries(m map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}
