package gateway

import (
	"context"
	"net/http"
	"time"
)

// RunProber actively probes every replica's GET /v1/health on the
// configured interval until ctx ends. Probes serve two jobs: they keep
// the informational healthy flag fresh, and they feed the circuit
// breakers — a probe takes the half-open probe slot when one is
// available, so a replica that died and came back is recovered by the
// prober rather than by gambling a client request on it, and a replica
// failing probes while closed burns its failure streak down before
// client traffic does.
func (g *Gateway) RunProber(ctx context.Context) {
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.probeAll(ctx)
		}
	}
}

// probeAll probes the whole fleet once, sequentially (a probe is one
// cheap GET; fleet sizes here do not justify fan-out bookkeeping).
func (g *Gateway) probeAll(ctx context.Context) {
	for _, name := range g.order {
		g.probeOne(ctx, g.replicas[name])
	}
}

func (g *Gateway) probeOne(ctx context.Context, rep *replica) {
	if rep.draining.Load() {
		return
	}
	pass, probe := rep.breaker.Allow()
	if !pass {
		// Open breaker inside cooldown, or a client request already holds
		// the probe slot — nothing useful to learn right now.
		return
	}
	tctx, cancel := context.WithTimeout(ctx, g.cfg.PerTryTimeout)
	res := g.send(tctx, rep, http.MethodGet, "/v1/health", nil)
	cancel()
	if res.err != nil && ctx.Err() != nil {
		rep.breaker.Release(probe)
		return
	}
	ok := res.healthyOutcome()
	rep.breaker.Record(ok, probe)
	rep.healthy.Store(ok && res.status == http.StatusOK)
	rm := g.tel.replica(rep.cfg.Name)
	rm.probes.Inc()
	if !ok {
		rm.probeFail.Inc()
		g.logger.Printf("gateway: probe of %s failed: status=%d err=%v", rep.cfg.Name, res.status, res.err)
	}
}
