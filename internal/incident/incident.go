// Package incident models incidents and their routing history: the records
// the incident-management system keeps (§2–§3) and that both the baseline
// router and the Scouts consume. Times are normalized model hours.
package incident

import (
	"fmt"
	"math"
	"sort"
)

// Severity follows the paper's low/medium/high split (§3.1: perfect routing
// saves 32% / 47.4% / 0.15% of time-to-mitigation respectively — every team
// is pulled into the highest-severity incidents regardless of routing).
type Severity int

// Severity levels.
const (
	SevLow Severity = iota
	SevMedium
	SevHigh
)

// String renders the severity.
func (s Severity) String() string {
	switch s {
	case SevHigh:
		return "high"
	case SevMedium:
		return "medium"
	default:
		return "low"
	}
}

// Source records how the incident was created (§2): by a team's automated
// watchdog or by a customer (CRI).
type Source int

// Incident sources.
const (
	SourceMonitor Source = iota
	SourceCustomer
)

// String renders the source.
func (s Source) String() string {
	if s == SourceCustomer {
		return "customer"
	}
	return "monitor"
}

// Hop is one team's stint investigating the incident.
type Hop struct {
	Team  string
	Enter float64 // model hours
	Exit  float64
}

// Duration returns the dwell time of the hop.
func (h Hop) Duration() float64 { return h.Exit - h.Enter }

// Incident is one incident record. Fields prefixed "True" are simulation
// ground truth that no routing system is allowed to read; OwnerLabel is the
// (possibly noisy, §8) label the incident-management system recorded.
type Incident struct {
	ID        string
	Title     string
	Body      string
	Severity  Severity
	Source    Source
	CreatedBy string  // team whose watchdog created it; "" for CRIs
	CreatedAt float64 // model hours

	// Components the incident text mentions (also embedded in Body).
	Components []string

	// InitialComponents are the components known at creation time. CRIs
	// often start with missing information (§7.4); earlier teams append
	// what they discover, so Components ⊇ InitialComponents by the time
	// the incident has been investigated.
	InitialComponents []string

	// Hops is the baseline routing trace, in order.
	Hops []Hop

	// OwnerLabel is the team that closed the incident per the incident
	// manager — the training label, which is sometimes wrong (§8 "Not all
	// incidents have the right label").
	OwnerLabel string

	// TrueOwner is the ground-truth responsible team ("customer" when the
	// root cause was outside the provider).
	TrueOwner string

	// RootCause describes the injected fault (diagnostics only).
	RootCause string
}

// TotalTime is the end-to-end investigation time across all hops.
func (in *Incident) TotalTime() float64 {
	var t float64
	for _, h := range in.Hops {
		t += h.Duration()
	}
	return t
}

// TimeIn returns the total time the given team spent on the incident.
func (in *Incident) TimeIn(team string) float64 {
	var t float64
	for _, h := range in.Hops {
		if h.Team == team {
			t += h.Duration()
		}
	}
	return t
}

// Teams returns the distinct teams that investigated, in first-touch order.
func (in *Incident) Teams() []string {
	seen := map[string]bool{}
	var out []string
	for _, h := range in.Hops {
		if !seen[h.Team] {
			seen[h.Team] = true
			out = append(out, h.Team)
		}
	}
	return out
}

// WentThrough reports whether the team appears in the routing trace.
func (in *Incident) WentThrough(team string) bool {
	for _, h := range in.Hops {
		if h.Team == team {
			return true
		}
	}
	return false
}

// Misrouted reports whether any team other than the final owner was
// involved before the incident reached the owner (§3: mis-routed incidents
// waste other teams' time proving their innocence).
func (in *Incident) Misrouted() bool {
	if len(in.Hops) == 0 {
		return false
	}
	return in.Hops[0].Team != in.OwnerLabel || len(in.Teams()) > 1
}

// Day returns the (integer) day the incident was created on.
func (in *Incident) Day() int { return int(math.Floor(in.CreatedAt / 24)) }

// Validate checks internal consistency of the record.
func (in *Incident) Validate() error {
	if in.ID == "" {
		return fmt.Errorf("incident: missing ID")
	}
	prev := in.CreatedAt
	for i, h := range in.Hops {
		if h.Exit < h.Enter {
			return fmt.Errorf("incident %s: hop %d exits before entering", in.ID, i)
		}
		if h.Enter+1e-9 < prev {
			return fmt.Errorf("incident %s: hop %d overlaps previous hop", in.ID, i)
		}
		prev = h.Exit
	}
	return nil
}

// Log is an ordered collection of incidents with query helpers.
type Log struct {
	Incidents []*Incident
}

// Append adds an incident to the log.
func (l *Log) Append(in *Incident) { l.Incidents = append(l.Incidents, in) }

// Len returns the number of incidents.
func (l *Log) Len() int { return len(l.Incidents) }

// Filter returns the incidents for which keep returns true.
func (l *Log) Filter(keep func(*Incident) bool) []*Incident {
	var out []*Incident
	for _, in := range l.Incidents {
		if keep(in) {
			out = append(out, in)
		}
	}
	return out
}

// ByDay groups incidents by creation day, returning the sorted day indices
// and the per-day groups. Used by the per-day fraction figures (1 and 4).
func (l *Log) ByDay() (days []int, groups map[int][]*Incident) {
	groups = map[int][]*Incident{}
	for _, in := range l.Incidents {
		d := in.Day()
		groups[d] = append(groups[d], in)
	}
	for d := range groups {
		days = append(days, d)
	}
	sort.Ints(days)
	return days, groups
}

// OwnedBy returns incidents whose recorded owner is the team.
func (l *Log) OwnedBy(team string) []*Incident {
	return l.Filter(func(in *Incident) bool { return in.OwnerLabel == team })
}
