package survey

import (
	"strings"
	"testing"
)

func TestAggregatesMatchPaper(t *testing.T) {
	a := Aggregate(Responses())
	if a.Total != 27 {
		t.Fatalf("total respondents = %d, want 27", a.Total)
	}
	// Table 3 rows.
	wantTeams := map[Band]int{Teams1to10: 14, Teams10to20: 1, Teams20to100: 8, Teams100to1000: 1, TeamsOver1000: 1}
	for b, n := range wantTeams {
		if a.TeamBands[b] != n {
			t.Errorf("team band %s = %d, want %d", b, a.TeamBands[b], n)
		}
	}
	wantUsers := map[Band]int{UsersUnder1k: 4, Users1kTo10k: 5, Users10kTo100k: 11, Users100kTo1m: 3, UsersOver1m: 4}
	for b, n := range wantUsers {
		if a.UserBands[b] != n {
			t.Errorf("user band %s = %d, want %d", b, a.UserBands[b], n)
		}
	}
	// Prose aggregates of Appendix A.
	if a.ImpactAtLeast3 != 23 || a.ImpactAtLeast4 != 17 {
		t.Errorf("impact >=3: %d (want 23), >=4: %d (want 17)", a.ImpactAtLeast3, a.ImpactAtLeast4)
	}
	if a.BlamedOver60 != 17 {
		t.Errorf("blamed >60%%: %d, want 17", a.BlamedOver60)
	}
	if a.OthersUnder20 != 20 {
		t.Errorf("others <20%%: %d, want 20", a.OthersUnder20)
	}
	if a.MoreThan3Teams != 14 || a.AtLeast2Teams != 19 {
		t.Errorf(">3 teams: %d (want 14), >=2 teams: %d (want 19)", a.MoreThan3Teams, a.AtLeast2Teams)
	}
	// Operator kinds.
	if a.KindCounts["ISP"] != 9 || a.KindCounts["enterprise"] != 10 || a.KindCounts["datacenter"] != 5 {
		t.Errorf("kind counts wrong: %v", a.KindCounts)
	}
}

func TestTable3Rendering(t *testing.T) {
	s := Table3(Aggregate(Responses()))
	for _, want := range []string{"1-10", "14", "10k-100k", "11"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 3 missing %q:\n%s", want, s)
		}
	}
}

// TestResponsesListBandsInOrder: the reconstructed respondents carry their
// team and user bands in Band order, so every call returns the same rows.
func TestResponsesListBandsInOrder(t *testing.T) {
	rs := Responses()
	for i := 1; i < len(rs); i++ {
		if rs[i].Teams < rs[i-1].Teams || rs[i].Users < rs[i-1].Users {
			t.Fatalf("respondent %d: bands %s/%s after %s/%s", i, rs[i].Teams, rs[i].Users, rs[i-1].Teams, rs[i-1].Users)
		}
	}
}
