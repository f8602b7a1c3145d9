//go:build !race

package gateway

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestGatewayHandlerAllocations pins what one /v1/predict?team= costs
// through Gateway.Handler() over a canned upstream, hedging armed,
// recorder and test request included (scoutbench's
// gateway.allocs_per_req): 42 measured. It was 63 while send went through
// Client.Do, which copied the request's headers, on a header map and a
// URL made per attempt, with the shard key built as a string and walked
// into a fresh slice and map, a map for the tried set, and a context, a
// state and a timer per round for the hedge race beside each attempt's;
// 64 while parsing the canned answer's absent Content-Length made an
// error value, the shape check's json.Decoder 71, and the primary's
// goroutine and channel, a URL parse per attempt, io.ReadAll's doubling
// and three Header.Sets 79 before that. The ceiling is the measure plus
// a half, so one allocation more per request exceeds it (a ceiling of the
// measure plus one let it pass). (A non-race file: the race detector makes
// sync.Pool drop items at random.)
func TestGatewayHandlerAllocations(t *testing.T) {
	const budget = 42.5
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
		t.Errorf("%.0f allocations per request, budget %.1f", allocs, budget)
	}
}

// TestGatewayHopAllocations pins what one /v1/predict costs over a real
// hop, which the canned RoundTripper above cannot see: the gateway's own
// http.Transport to a loopback httptest.Server replica with a canned
// answer, both ends of the connection and the replica's net/http server
// included. 106 measured; 131 while send went through Client.Do and the
// transport asked for gzip. Either alone fails the ceiling, the measure
// plus one: Client.Do back in send reads 112, and compression back on
// the default transport 110 — the request's Accept-Encoding header,
// written and parsed for an answer nobody compresses.
func TestGatewayHopAllocations(t *testing.T) {
	const budget = 107
	const canned = `{"team":"phynet","verdict":"responsible","confidence":0.91}` + "\n"
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Content-Type"] = []string{"application/json"}
		_, _ = io.WriteString(w, canned)
	}))
	defer replica.Close()
	g := newTestGateway(t, Config{Replicas: []ReplicaConfig{{Name: "a", Team: "phynet", URL: replica.URL}}})
	defer g.transport.(*http.Transport).CloseIdleConnections()
	h := g.Handler()
	allocs := testing.AllocsPerRun(500, func() {
		if w := doPredict(t, h, "phynet", "incident 1"); w.Code != http.StatusOK || w.Body.String() != canned {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	})
	t.Logf("%.0f allocations per request", allocs)
	if allocs > budget {
		t.Errorf("%.0f allocations per request, budget %d", allocs, budget)
	}
}
