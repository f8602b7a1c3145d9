package scouts_test

import (
	"testing"

	"scouts"
	"scouts/internal/cloudsim"
)

// TestFacadeEndToEnd exercises the public API exactly the way the README
// quick start does: build a world, train a Scout, query it, snapshot and
// restore it.
func TestFacadeEndToEnd(t *testing.T) {
	gen := cloudsim.New(cloudsim.Params{Seed: 3, Days: 40, IncidentsPerDay: 8})
	log := gen.Generate()

	cfg, err := scouts.ParseConfig(scouts.DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	scout, err := scouts.Train(scouts.TrainOptions{
		Config:    cfg,
		Topology:  gen.Topology(),
		Source:    gen.Telemetry(),
		Incidents: log.Incidents[:250],
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Query through the facade type.
	in := log.Incidents[260]
	p := scout.PredictIncident(in)
	if p.Verdict == scouts.VerdictResponsible || p.Verdict == scouts.VerdictNotResponsible {
		if p.Confidence < 0.5 || p.Explanation == "" {
			t.Fatalf("prediction incomplete: %+v", p)
		}
	}

	// Snapshot / restore round trip.
	snap, err := scout.SnapshotPack()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := scouts.Restore(snap, gen.Topology(), gen.Telemetry())
	if err != nil {
		t.Fatal(err)
	}
	a := scout.PredictIncident(in)
	b := restored.PredictIncident(in)
	if a.Responsible != b.Responsible {
		t.Fatal("restored scout disagrees")
	}
}

func TestFacadeMaster(t *testing.T) {
	m := scouts.NewMaster(map[string][]string{"Storage": {"PhyNet"}}, 0.8)
	team, _ := m.Route([]scouts.Answer{
		{Team: "PhyNet", Responsible: true, Confidence: 0.9, Usable: true},
	}, "legacy")
	if team != "PhyNet" {
		t.Fatalf("routed to %s", team)
	}
}
