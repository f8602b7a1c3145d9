//go:build !race

package gateway

import (
	"net/http"
	"testing"
)

// TestGatewayHandlerAllocations pins what one /v1/predict?team= costs
// through Gateway.Handler() over a canned upstream, hedging armed,
// recorder and test request included (scoutbench's
// gateway.allocs_per_req): 71 measured, where the primary's goroutine and
// channel, a URL parse per attempt, io.ReadAll's doubling and three
// Header.Sets made it 79. (A non-race file: the race detector makes
// sync.Pool drop items at random.)
func TestGatewayHandlerAllocations(t *testing.T) {
	const budget = 71
	_, h, title := raceFixture(t, Config{}, func(r *http.Request) (*http.Response, error) {
		return answer(r, 200, `{"team":"phynet","verdict":"responsible","confidence":0.91}`+"\n")
	}, "a", "b", "c")
	allocs := testing.AllocsPerRun(200, func() {
		if w := doPredict(t, h, "phynet", title); w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	})
	t.Logf("%.0f allocations per request", allocs)
	if allocs > budget {
		t.Errorf("%.0f allocations per request, budget %d", allocs, budget)
	}
}
