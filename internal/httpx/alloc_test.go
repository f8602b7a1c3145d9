package httpx

import (
	"encoding/json"
	"fmt"
	"testing"

	"scouts/internal/allocgate"
)

// TestParseAllocations pins what the predict codec allocates: every string
// of a body is unescaped into one arena and every Components is cut from
// one list, so a single request costs two allocations (the arena, its
// Components) and a batch three (the arena, the list arena, Items)
// whatever its item count.
func TestParseAllocations(t *testing.T) {
	item := func(i int) PredictRequest {
		return PredictRequest{
			Title:      fmt.Sprintf("Packet loss <%d> on tor%d.c1.dc1", i, i),
			Body:       "FCS errors   above threshold\n",
			Components: []string{fmt.Sprintf("tor%d.c1.dc1", i), "vm2.c1.dc1"},
			Time:       float64(200 + i),
		}
	}
	single, err := json.Marshal(item(0))
	if err != nil {
		t.Fatal(err)
	}
	allocgate.Check(t, "httpx.ParsePredict", 2, func() {
		var req PredictRequest
		if !ParsePredict(single, &req) {
			t.Fatalf("the lexer refused %s", single)
		}
	})
	for _, n := range []int{8, 32} {
		var batch BatchPredictRequest
		for i := 0; i < n; i++ {
			batch.Items = append(batch.Items, item(i))
		}
		body, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		allocgate.Check(t, fmt.Sprintf("httpx.ParseBatch/items=%d", n), 3, func() {
			var req BatchPredictRequest
			if !ParseBatch(body, &req) || len(req.Items) != n {
				t.Fatalf("the lexer refused a %d-item batch", n)
			}
		})
	}
}
