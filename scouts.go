// Package scouts is the public API of the Scouts incident-routing library —
// a from-scratch reproduction of "Scouts: Improving the Diagnosis Process
// Through Domain-customized Incident Routing" (SIGCOMM 2020).
//
// A Scout is a per-team, ML-assisted gate-keeper: given an incident and the
// team's monitoring data it answers "is this team responsible?" with an
// independent confidence score and an explanation. Scouts are built by the
// team they protect from a small configuration file; the framework does the
// rest: component extraction, feature construction over TIME_SERIES and
// EVENT monitoring data, a supervised random forest for the common case, a
// change-point-based unsupervised model (CPD+) for new and rare incidents,
// and a meta-learned model selector between them.
//
// # Quick start
//
//	cfg, err := scouts.ParseConfig(scouts.DefaultPhyNetConfig)
//	...
//	scout, err := scouts.Train(scouts.TrainOptions{
//		Config:    cfg,
//		Topology:  topo,    // the team's component hierarchy
//		Source:    source,  // a monitoring.DataSource
//		Incidents: history, // labelled incident history
//	})
//	...
//	p := scout.Predict(title, body, mentionedComponents, now)
//	fmt.Println(p.Responsible, p.Confidence, p.Explanation)
//
// The subpackages under internal implement every substrate the paper
// depends on: the monitoring registry and read contracts
// (internal/monitoring), the datacenter topology abstraction
// (internal/topology), the incident model (internal/incident), the ML
// models (internal/ml/...), the legacy NLP router (internal/text), the
// Scout Master (internal/master), a synthetic cloud calibrated to the
// paper's §3 measurements (internal/cloudsim), the Resource Central-style
// serving pipeline (internal/serving), and one runner per table and figure
// of the paper (internal/experiments, driven by cmd/repro).
package scouts

import (
	"scouts/internal/core"
	"scouts/internal/incident"
	"scouts/internal/master"
	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// Core framework types, re-exported for library consumers.
type (
	// Scout is a trained per-team gate-keeper.
	Scout = core.Scout
	// Config is a parsed Scout configuration.
	Config = core.Config
	// TrainOptions configure Train.
	TrainOptions = core.TrainOptions
	// Prediction is a Scout's answer: verdict, confidence, explanation.
	Prediction = core.Prediction
	// Verdict is the kind of answer.
	Verdict = core.Verdict
	// FeatureCache memoizes featurization across retraining rounds.
	FeatureCache = core.FeatureCache

	// Incident is one incident record with its routing history.
	Incident = incident.Incident
	// Hop is one team's stint on an incident.
	Hop = incident.Hop
	// IncidentLog is an ordered incident collection.
	IncidentLog = incident.Log

	// Topology is the component hierarchy Scouts extract against.
	Topology = topology.Topology
	// ComponentType classifies components (vm, server, switch, ...).
	ComponentType = topology.ComponentType

	// DataSource serves monitoring data to the framework.
	DataSource = monitoring.DataSource
	// Descriptor declares a monitoring dataset.
	Descriptor = monitoring.Descriptor

	// Master composes multiple Scouts' answers (Appendix C).
	Master = master.Master
	// Answer is one Scout's reply to the Master.
	Answer = master.Answer
)

// Verdicts.
const (
	VerdictResponsible    = core.VerdictResponsible
	VerdictNotResponsible = core.VerdictNotResponsible
	VerdictExcluded       = core.VerdictExcluded
	VerdictFallback       = core.VerdictFallback
)

// DefaultPhyNetConfig is the deployed PhyNet Scout's configuration over the
// synthetic cloud's naming scheme.
const DefaultPhyNetConfig = core.DefaultPhyNetConfig

// ParseConfig parses the Scout configuration DSL (§5.1, §5.3).
func ParseConfig(src string) (*Config, error) { return core.ParseConfig(src) }

// Train builds a Scout from a configuration and labelled incident history.
func Train(opt TrainOptions) (*Scout, error) { return core.Train(opt) }

// Restore rebuilds a Scout from a Snapshot produced by (*Scout).Snapshot.
func Restore(data []byte, topo *Topology, source DataSource) (*Scout, error) {
	return core.Restore(data, topo, source)
}

// NewFeatureCache creates a cache for retraining workflows.
func NewFeatureCache() *FeatureCache { return core.NewFeatureCache() }

// NewMaster creates a Scout Master with the given inter-team dependency
// edges and confidence gate.
func NewMaster(deps map[string][]string, minConfidence float64) *Master {
	return master.New(deps, minConfidence)
}
