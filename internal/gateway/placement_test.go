package gateway

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestShardPlacementIsStable pins placement from outside: a 3-replica
// PhyNet fleet over a scripted upstream, 32 fixed incidents sent through
// Handler(), each once naming the team and once leaving it to the fleet,
// and the X-Scout-Replica of every answer compared with the placement the
// shard key gave when this test was written. A change to the shard key,
// the ring or the team resolution moves incidents between replicas — and
// with them each replica's caches — and fails here.
func TestShardPlacementIsStable(t *testing.T) {
	const want = "" +
		"r1 r1 r2 r2 r2 r2 r2 r1 r0 r2 r1 r0 r0 r1 r2 r1 " +
		"r1 r0 r1 r1 r0 r1 r1 r0 r2 r2 r0 r0 r2 r0 r2 r1"
	cfg := Config{
		Client: &http.Client{Transport: script(func(r *http.Request) (*http.Response, error) {
			return answer(r, 200, `{"ok":true}`)
		})},
		HedgeAfter: -1,
	}
	for _, name := range []string{"r0", "r1", "r2"} {
		cfg.Replicas = append(cfg.Replicas, ReplicaConfig{Name: name, Team: "PhyNet", URL: "http://" + name})
	}
	h := newTestGateway(t, cfg).Handler()
	var got []string
	for i := 0; i < 32; i++ {
		n := strconv.Itoa(i)
		body := `{"title":"Packet loss on tor` + n + `.c` + strconv.Itoa(i%4) + `.dc1","body":"incident ` + n + `","time":` + strconv.Itoa(100+i) + `}`
		var by [2]string
		for j, path := range []string{"/v1/predict?team=PhyNet", "/v1/predict"} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			if w.Code != http.StatusOK {
				t.Fatalf("incident %d via %s answered %d: %s", i, path, w.Code, w.Body.String())
			}
			by[j] = w.Header().Get("X-Scout-Replica")
		}
		if by[0] != by[1] {
			t.Fatalf("incident %d: %s with ?team=PhyNet, %s without", i, by[0], by[1])
		}
		got = append(got, by[0])
	}
	if g := strings.Join(got, " "); g != want {
		t.Fatalf("placement moved:\n got %s\nwant %s", g, want)
	}
}
