package forest

import (
	"encoding/json"
	"math/rand"
	"testing"

	"scouts/internal/ml/mlcore"
)

func TestForestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := mlcore.NewDataset([]string{"a", "b"})
	for i := 0; i < 200; i++ {
		y := rng.Float64() < 0.5
		mu := 0.0
		if y {
			mu = 3
		}
		d.MustAdd(mlcore.Sample{X: []float64{mu + rng.NormFloat64(), rng.NormFloat64()}, Y: y})
	}
	f, err := Train(d, Params{NumTrees: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var back Forest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		x := []float64{rng.NormFloat64() * 3, rng.NormFloat64()}
		if f.PredictProb(x) != back.PredictProb(x) {
			t.Fatalf("round trip changed prediction at %v", x)
		}
	}
	if back.NumTrees() != f.NumTrees() {
		t.Fatal("tree count changed")
	}
	// Explanations survive too.
	p1, c1 := f.Explain([]float64{3, 0})
	p2, c2 := back.Explain([]float64{3, 0})
	if p1 != p2 || len(c1) != len(c2) {
		t.Fatal("explanation changed across round trip")
	}
}

// corruptSnapshots are malformed JSON snapshots UnmarshalJSON must turn
// into errors. "empty tree", "l == r", "child is the node" and "back edge"
// used to panic inside newFlatForest; "unreachable node" used to load and
// then fail to re-load from its own pack.
var corruptSnapshots = map[string]string{
	"no trees":              `{"features":["a"],"importance":[1],"trees":[]}`,
	"out-of-range feature":  `{"features":["a"],"importance":[1],"trees":[[{"f":5,"p":0.5}]]}`,
	"out-of-range child":    `{"features":["a"],"importance":[1],"trees":[[{"f":0,"l":7,"r":0,"p":0.5}]]}`,
	"garbage":               `not json`,
	"empty tree":            `{"features":["a"],"importance":[1],"trees":[[]]}`,
	"l == r":                `{"features":["a"],"importance":[1],"trees":[[{"f":0,"l":1,"r":1,"p":0.5},{"f":-1,"p":1}]]}`,
	"child is the node":     `{"features":["a"],"importance":[1],"trees":[[{"f":0,"l":0,"r":1,"p":0.5},{"f":-1,"p":1}]]}`,
	"back edge":             `{"features":["a"],"importance":[1],"trees":[[{"f":0,"l":1,"r":2,"p":0.5},{"f":0,"l":0,"r":2,"p":0.5},{"f":-1,"p":1}]]}`,
	"unreachable node":      `{"features":["a"],"importance":[1],"trees":[[{"f":-1,"p":0.5},{"f":-1,"p":1}]]}`,
	"importance != feature": `{"features":["a","b"],"importance":[1],"trees":[[{"f":-1,"p":0.5}]]}`,
}

func TestForestJSONRejectsCorrupt(t *testing.T) {
	for name, snap := range corruptSnapshots {
		var f Forest
		if err := json.Unmarshal([]byte(snap), &f); err == nil {
			t.Errorf("%s: accepted %s", name, snap)
		}
		if f.flat != nil || f.trees != nil {
			t.Errorf("%s: a rejected snapshot left state behind", name)
		}
	}
	// The smallest well-formed snapshots still load.
	for _, snap := range []string{
		`{"features":["a"],"importance":[1],"trees":[[{"f":-1,"p":0.5}]]}`,
		`{"features":["a"],"importance":[1],"trees":[[{"f":0,"t":1,"l":1,"r":2,"p":0.5},{"f":-1,"p":0},{"f":-1,"p":1}]]}`,
	} {
		var f Forest
		if err := json.Unmarshal([]byte(snap), &f); err != nil {
			t.Errorf("rejected %s: %v", snap, err)
		}
	}
}
