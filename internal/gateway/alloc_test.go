package gateway

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"scouts/internal/allocgate"
)

// TestGatewayHandlerAllocations pins what one /v1/predict?team= costs
// through Gateway.Handler() over a canned upstream, hedging armed,
// recorder and test request included (scoutbench's
// gateway.allocs_per_req).
func TestGatewayHandlerAllocations(t *testing.T) {
	_, h, title := raceFixture(t, Config{}, func(r *http.Request) (*http.Response, error) {
		return answer(r, 200, `{"team":"phynet","verdict":"responsible","confidence":0.91}`+"\n")
	}, "a", "b", "c")
	allocgate.Check(t, "gateway.Handler", 42, func() {
		if w := doPredict(t, h, "phynet", title); w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	})
}

// TestGatewayHopAllocations pins what one /v1/predict costs over a real
// hop, which the canned RoundTripper above cannot see: the gateway's own
// http.Transport to a loopback httptest.Server replica with a canned
// answer, both ends of the connection and the replica's net/http server
// included. send goes through the Transport, not Client.Do, and the
// Transport asks for no compression: either way back adds allocations a
// hop (Client.Do its header copies, compression the request's
// Accept-Encoding header, written and parsed for an answer nobody
// compresses).
func TestGatewayHopAllocations(t *testing.T) {
	const canned = `{"team":"phynet","verdict":"responsible","confidence":0.91}` + "\n"
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Content-Type"] = []string{"application/json"}
		_, _ = io.WriteString(w, canned)
	}))
	defer replica.Close()
	g := newTestGateway(t, Config{Replicas: []ReplicaConfig{{Name: "a", Team: "phynet", URL: replica.URL}}})
	defer g.transport.(*http.Transport).CloseIdleConnections()
	h := g.Handler()
	allocgate.Check(t, "gateway.hop", 106, func() {
		if w := doPredict(t, h, "phynet", "incident 1"); w.Code != http.StatusOK || w.Body.String() != canned {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	})
}
