package incident

import (
	"fmt"
	"math"
	"testing"
)

func sample() *Incident {
	return &Incident{
		ID:         "INC-1",
		Title:      "VM connectivity loss",
		Body:       "vm3.c1.dc1 cannot reach storage cluster c2.dc1",
		Severity:   SevMedium,
		Source:     SourceMonitor,
		CreatedBy:  "Storage",
		CreatedAt:  30, // day 1
		Components: []string{"vm3.c1.dc1", "c2.dc1"},
		Hops: []Hop{
			{Team: "Storage", Enter: 30, Exit: 32},
			{Team: "SLB", Enter: 32, Exit: 33.5},
			{Team: "PhyNet", Enter: 33.5, Exit: 36},
		},
		OwnerLabel: "PhyNet",
		TrueOwner:  "PhyNet",
	}
}

func TestTimeAccounting(t *testing.T) {
	in := sample()
	if got := in.TotalTime(); math.Abs(got-6) > 1e-12 {
		t.Fatalf("TotalTime = %v", got)
	}
	if got := in.TimeIn("Storage"); got != 2 {
		t.Fatalf("TimeIn(Storage) = %v", got)
	}
}

func TestTeamsAndRouting(t *testing.T) {
	in := sample()
	teams := in.Teams()
	if len(teams) != 3 || teams[0] != "Storage" || teams[2] != "PhyNet" {
		t.Fatalf("Teams = %v", teams)
	}
	if !in.Misrouted() {
		t.Fatal("3-hop incident should be mis-routed")
	}
	if !in.WentThrough("SLB") || in.WentThrough("DNS") {
		t.Fatal("WentThrough wrong")
	}
	direct := &Incident{ID: "INC-2", OwnerLabel: "PhyNet", Hops: []Hop{{Team: "PhyNet", Enter: 0, Exit: 1}}}
	if direct.Misrouted() {
		t.Fatal("directly-routed incident flagged as mis-routed")
	}
}

func TestDay(t *testing.T) {
	if d := (&Incident{CreatedAt: 30}).Day(); d != 1 {
		t.Fatalf("Day = %d", d)
	}
	if d := (&Incident{CreatedAt: 23.99}).Day(); d != 0 {
		t.Fatalf("Day = %d", d)
	}
}

func TestValidate(t *testing.T) {
	in := sample()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := sample()
	bad.Hops[1].Exit = bad.Hops[1].Enter - 1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative-duration hop should fail validation")
	}
	overlap := sample()
	overlap.Hops[1].Enter = overlap.Hops[0].Enter - 1
	if err := overlap.Validate(); err == nil {
		t.Fatal("overlapping hops should fail validation")
	}
	if err := (&Incident{}).Validate(); err == nil {
		t.Fatal("missing ID should fail validation")
	}
}

func TestLogQueries(t *testing.T) {
	var l Log
	a := sample()
	b := sample()
	b.ID = "INC-2"
	b.CreatedAt = 50 // day 2
	b.OwnerLabel = "Storage"
	b.Hops = []Hop{{Team: "Storage", Enter: 50, Exit: 51}}
	l.Append(a)
	l.Append(b)

	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	days, groups := l.ByDay()
	if len(days) != 2 || days[0] != 1 || days[1] != 2 {
		t.Fatalf("days = %v", days)
	}
	if len(groups[1]) != 1 || groups[1][0].ID != "INC-1" {
		t.Fatalf("groups = %v", groups)
	}
	if got := l.Filter(func(in *Incident) bool { return in.WentThrough("PhyNet") }); len(got) != 1 {
		t.Fatalf("Filter(WentThrough) = %d", len(got))
	}
	if got := l.OwnedBy("Storage"); len(got) != 1 || got[0].ID != "INC-2" {
		t.Fatalf("OwnedBy = %v", got)
	}
}

// TestByDayIsAscending: ByDay's day list comes out sorted however the
// per-day groups were filed.
func TestByDayIsAscending(t *testing.T) {
	var l Log
	for i := 0; i < 60; i++ {
		in := sample()
		in.ID = fmt.Sprintf("INC-%d", i)
		in.CreatedAt = float64((i*37)%60*24 + 1)
		l.Append(in)
	}
	days, groups := l.ByDay()
	if len(days) != 60 || len(groups) != 60 {
		t.Fatalf("%d days, %d groups, want 60", len(days), len(groups))
	}
	for i, d := range days {
		if d != i {
			t.Fatalf("days = %v, want 0 … 59 in order", days)
		}
	}
}

func TestStringers(t *testing.T) {
	if SevHigh.String() != "high" || SevLow.String() != "low" || SevMedium.String() != "medium" {
		t.Fatal("severity strings")
	}
	if SourceCustomer.String() != "customer" || SourceMonitor.String() != "monitor" {
		t.Fatal("source strings")
	}
}
