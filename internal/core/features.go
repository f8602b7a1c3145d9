package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"scouts/internal/metrics"
	"scouts/internal/ml/cpd"
	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// Extraction is the result of running the configuration's component
// extractors and exclusion rules over an incident's text (§5.1, §5.3).
type Extraction struct {
	// ByType holds the validated components per component type.
	ByType map[topology.ComponentType][]string
	// Devices are the device-level components (VMs, servers, switches) —
	// the set that decides narrow vs broad scope for CPD+ (§5.2.2).
	Devices []string
	// Broad is true when the incident implicates clusters or DCs but no
	// small device set.
	Broad bool
	// Excluded is true when a TITLE/BODY exclusion rule fired: the
	// incident is explicitly out of the team's scope.
	Excluded bool
	// Empty is true when no component could be extracted; such incidents
	// fall back to the legacy routing process (§5.3).
	Empty bool
}

// All returns every extracted component, in a slice of the caller's own.
func (e Extraction) All() []string {
	n := 0
	for _, typ := range typeOrder {
		n += len(e.ByType[typ])
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for _, typ := range typeOrder {
		out = append(out, e.ByType[typ]...)
	}
	return out
}

// typeOrder fixes the canonical component-type ordering of the feature
// layout: the device types first, then the scopes.
var typeOrder = [...]topology.ComponentType{
	topology.TypeVM, topology.TypeServer, topology.TypeSwitch,
	topology.TypeCluster, topology.TypeDC,
}

// deviceTypes is how many leading entries of typeOrder are device types.
const deviceTypes = 3

// typeSlot is the component type's position in typeOrder, -1 for a type the
// layout does not know.
func typeSlot(t topology.ComponentType) int {
	for k, typ := range typeOrder {
		if t == typ {
			return k
		}
	}
	return -1
}

// featureGroup is one column block of the feature vector: a dataset, or
// several datasets merged by class tag (§5.1 "the automatic combination of
// related data sets").
type featureGroup struct {
	name     string
	datasets []monitoring.Descriptor
	isEvent  bool
}

func (g featureGroup) coversType(t topology.ComponentType) bool {
	for _, d := range g.datasets {
		if d.CoversType(t) {
			return true
		}
	}
	return false
}

// coversScope extends coversType for aggregate component types: cluster
// features combine "all data with the same cluster tag" (§5.2), i.e. the
// data of the cluster's switches and servers as well as cluster-keyed
// datasets; DC features aggregate the cluster-granularity data of the DC's
// clusters.
func (g featureGroup) coversScope(t topology.ComponentType) bool {
	switch t {
	case topology.TypeCluster:
		return g.coversType(topology.TypeCluster) ||
			g.coversType(topology.TypeSwitch) || g.coversType(topology.TypeServer)
	case topology.TypeDC:
		return g.coversType(topology.TypeDC) || g.coversType(topology.TypeCluster)
	default:
		return g.coversType(t)
	}
}

// FeatureBuilder turns (incident, monitoring data) into the fixed-length
// feature vector of §5.2 and into CPD+ inputs.
type FeatureBuilder struct {
	cfg    *Config
	topo   *topology.Topology
	source monitoring.DataSource
	// stats is the aggregate-query view of source: the source itself when
	// it offers monitoring.StatsSource (the cloud simulator, the faults
	// decorators), a window-materializing adapter otherwise. Featurization
	// pulls baseline statistics and event counts through it so the hot path
	// stops copying raw windows it only ever reduced to count/mean/std.
	stats monitoring.StatsSource
	// series is the append-into view of source's time-series windows: the
	// source itself when it offers monitoring.SeriesAppender, a copying
	// adapter otherwise. Current windows land directly in the buffer they
	// are reduced from.
	series monitoring.SeriesAppender
	// health is the source's availability view when it has one (a chaos
	// wrapper, a circuit breaker), nil otherwise. Imputation prefers it
	// over registry presence: an outage hides data, not the dataset's
	// existence, so the feature layout survives the outage.
	health monitoring.HealthReporter

	groups []featureGroup
	types  []topology.ComponentType // component types present in the layout
	names  []string
	// slot maps (type, group, stat) to the vector index; built once.
	slotOf map[string]int
	// groupSlots lists the vector indices belonging to each group name,
	// used for mean imputation when a monitoring system disappears.
	groupSlots map[string][]int
	// scratch pools FeaturizeInto's working buffers (*featScratch), so
	// concurrent featurization does not regrow them per (request, group).
	scratch sync.Pool
	// finders holds one match enumerator per configured extractor, by
	// typeOrder position (nil where the configuration has none), and
	// extracting pools Extract's working lists (*extractScratch).
	finders    [len(typeOrder)]*finder
	extracting sync.Pool
}

// extractScratch is what one Extract call collects in. Nothing in it
// outlives the call: the returned Extraction is copied out of it, because a
// FeatureCache keeps Extractions for as long as it lives.
type extractScratch struct {
	matches []string                 // one extractor's matches: substrings of the text
	byType  [len(typeOrder)][]string // accepted components, the topology's own name strings
}

// featScratch is what one FeaturizeInto call works in.
type featScratch struct {
	merged []float64 // the normalized series of one feature group
	segs   []segment // the contributors of one component type
}

// segment is a run of contributors of one component type. Featurization
// asks a dataset about a segment only when the dataset's registry entry
// covers that type (the coverage plan): a query that reaches the source can
// answer, so an empty window means missing data, never "not monitored".
type segment struct {
	typ   topology.ComponentType
	comps []string // read-only: the Extraction's or the topology's own slice
}

// NewFeatureBuilder computes the feature layout from the configuration and
// the datasets the source advertises. The layout depends only on the
// dataset *registry* (names, types, class tags, coverage), so a Scout
// trained against one source can score against another with the same
// registry.
func NewFeatureBuilder(cfg *Config, topo *topology.Topology, source monitoring.DataSource) *FeatureBuilder {
	fb := &FeatureBuilder{
		cfg: cfg, topo: topo, source: source,
		stats:      monitoring.StatsSourceOf(source),
		series:     monitoring.SeriesAppenderOf(source),
		health:     monitoring.HealthReporterOf(source),
		slotOf:     map[string]int{},
		groupSlots: map[string][]int{},
	}

	// Group datasets by class tag.
	byGroup := map[string][]monitoring.Descriptor{}
	for _, d := range source.Datasets() {
		if !cfg.UsesDataset(d.Name) {
			continue
		}
		class := d.Class
		if o := cfg.ClassOverride(d.Name); o != "" {
			class = o
		}
		key := d.Name
		if class != "" {
			key = "class:" + class
		}
		byGroup[key] = append(byGroup[key], d)
	}
	var keys []string
	for k := range byGroup {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ds := byGroup[k]
		name := strings.TrimPrefix(k, "class:")
		fb.groups = append(fb.groups, featureGroup{
			name:     name,
			datasets: ds,
			isEvent:  ds[0].Type == monitoring.Event,
		})
	}

	// Component types: those with an extractor AND any covering dataset.
	// The PhyNet Scout has no VM features because PhyNet monitors no VM
	// data (§5.2).
	for k, typ := range typeOrder {
		re, ok := cfg.Extractors[typ]
		if !ok {
			continue
		}
		fb.finders[k] = newFinder(re)
		covered := false
		for _, g := range fb.groups {
			if g.coversScope(typ) {
				covered = true
				break
			}
		}
		if covered {
			fb.types = append(fb.types, typ)
		}
	}

	// Build the flat name layout.
	add := func(group, name string) {
		fb.slotOf[name] = len(fb.names)
		fb.names = append(fb.names, name)
		if group != "" {
			fb.groupSlots[group] = append(fb.groupSlots[group], len(fb.names)-1)
		}
	}
	for _, typ := range fb.types {
		for _, g := range fb.groups {
			if !g.coversScope(typ) {
				continue
			}
			if g.isEvent {
				add(g.name, fmt.Sprintf("%s.%s.count", typ, g.name))
				continue
			}
			for _, stat := range metrics.SummaryNames {
				add(g.name, fmt.Sprintf("%s.%s.%s", typ, g.name, stat))
			}
		}
		// The per-type component count (§5.2: it helps the model judge
		// whether a percentile shift is significant).
		add("", fmt.Sprintf("%s.ncomponents", typ))
	}
	return fb
}

// FeatureNames returns the layout's feature names.
func (fb *FeatureBuilder) FeatureNames() []string { return fb.names }

// Groups returns the feature-group names (one per dataset or class).
func (fb *FeatureBuilder) Groups() []string {
	out := make([]string, len(fb.groups))
	for i, g := range fb.groups {
		out[i] = g.name
	}
	return out
}

// GroupSlots returns the vector indices owned by a feature group.
func (fb *FeatureBuilder) GroupSlots(group string) []int {
	return append([]int(nil), fb.groupSlots[group]...)
}

// Extract runs the configured extractors and exclusion rules on incident
// text (§5.1, §5.3).
func (fb *FeatureBuilder) Extract(title, body string, mentioned []string) Extraction {
	return fb.extract(title+"\n"+body, title, body, mentioned)
}

// extract is Extract given the joined text the extractors run over,
// title + "\n" + body, which the predict path builds once and also hands to
// the model selector.
func (fb *FeatureBuilder) extract(text, title, body string, mentioned []string) Extraction {
	var ex Extraction
	for _, rule := range fb.cfg.Excludes {
		switch rule.Field {
		case "TITLE":
			if rule.Re.MatchString(title) {
				ex.Excluded = true
			}
		case "BODY":
			if rule.Re.MatchString(body) {
				ex.Excluded = true
			}
		}
	}

	sc, _ := fb.extracting.Get().(*extractScratch)
	if sc == nil {
		sc = new(extractScratch)
	}
	for _, f := range fb.finders {
		if f == nil {
			continue
		}
		sc.matches = f.findAll(sc.matches[:0], text)
		for _, m := range sc.matches {
			fb.consider(sc, m)
		}
	}
	clear(sc.matches) // the pool must not keep the text alive
	// Structured mentions (the incident-management system also carries a
	// component list; the deployed Scout uses both).
	for _, m := range mentioned {
		fb.consider(sc, m)
	}

	// Dependency expansion through the topology abstraction: a VM implies
	// its host server; a server implies its ToR; everything implies its
	// cluster and DC (§5.1).
	for _, vm := range sc.byType[typeSlot(topology.TypeVM)] {
		if srv := fb.topo.ServerOfVM(vm); srv != "" {
			fb.consider(sc, srv)
		}
	}
	for _, srv := range sc.byType[typeSlot(topology.TypeServer)] {
		if tor := fb.topo.ToROfServer(srv); tor != "" {
			fb.consider(sc, tor)
		}
	}
	for k := range sc.byType {
		for _, c := range sc.byType[k] {
			comp, ok := fb.topo.Lookup(c)
			for ok && comp.Parent != "" {
				if comp, ok = fb.topo.Lookup(comp.Parent); ok {
					fb.accept(sc, comp)
				}
			}
		}
	}

	// The Extraction's lists are carved out of one array in typeOrder, each
	// sorted, so the devices are its head; every list is clipped to its
	// length, so an append to one copies instead of running into the next.
	total := 0
	for k := range sc.byType {
		slices.Sort(sc.byType[k])
		sc.byType[k] = slices.Compact(sc.byType[k])
		total += len(sc.byType[k])
	}
	ex.ByType = make(map[topology.ComponentType][]string, len(typeOrder))
	names := make([]string, 0, total)
	for k, typ := range typeOrder {
		if k == deviceTypes && len(names) > 0 {
			ex.Devices = names[:len(names):len(names)]
		}
		if list := sc.byType[k]; len(list) > 0 {
			from := len(names)
			names = append(names, list...)
			ex.ByType[typ] = names[from:len(names):len(names)]
			sc.byType[k] = list[:0]
		}
	}
	fb.extracting.Put(sc)
	hasScope := len(names) > len(ex.Devices)
	ex.Broad = len(ex.Devices) == 0 && hasScope
	ex.Empty = len(ex.Devices) == 0 && !hasScope
	return ex
}

// consider takes a candidate component name — an extractor's match, a
// structured mention, a dependency — into the scratch lists if the topology
// knows it.
func (fb *FeatureBuilder) consider(sc *extractScratch, name string) {
	if comp, ok := fb.topo.Lookup(name); ok {
		fb.accept(sc, comp)
	}
}

// dedupScan bounds the list length up to which accept looks for a component
// before adding it. Longer lists take repeats and lose them when Extract
// sorts and compacts, so a text naming thousands of components costs a sort,
// not a scan per mention.
const dedupScan = 32

// accept files a known component under its type unless a component-level
// exclusion rule (e.g. decommissioned switches) rejects it.
func (fb *FeatureBuilder) accept(sc *extractScratch, comp *topology.Component) {
	k := typeSlot(comp.Type)
	if k < 0 {
		return
	}
	list := sc.byType[k]
	if len(list) <= dedupScan && slices.Contains(list, comp.Name) {
		return
	}
	for _, rule := range fb.cfg.Excludes {
		if rule.Field == string(comp.Type) && rule.Re.MatchString(comp.Name) {
			return
		}
	}
	sc.byType[k] = append(list, comp.Name)
}

// contributors returns the components whose data feeds the features of one
// component type, as typed segments in contribution order: the extracted
// components of that type, plus — for clusters — every device the cluster
// tag covers (§5.2 "all data with the same ... 'cluster' tag is combined").
// The answer lives in sc.segs, overwriting the previous one; the segments
// alias the Extraction's and the topology index's slices.
func (fb *FeatureBuilder) contributors(sc *featScratch, ex Extraction, typ topology.ComponentType) []segment {
	own := ex.ByType[typ]
	segs := sc.segs[:0]
	switch typ {
	case topology.TypeCluster:
		for i, cl := range own {
			segs = append(segs,
				segment{topology.TypeCluster, own[i : i+1]},
				segment{topology.TypeSwitch, fb.topo.DescendantsOfType(cl, topology.TypeSwitch)},
				segment{topology.TypeServer, fb.topo.DescendantsOfType(cl, topology.TypeServer)})
		}
	case topology.TypeDC:
		// DC features aggregate the cluster-granularity datasets of the
		// DC's clusters; device-level data at DC scope would both dilute
		// (§9) and explode the query cost.
		for i, dc := range own {
			segs = append(segs,
				segment{topology.TypeDC, own[i : i+1]},
				segment{topology.TypeCluster, fb.topo.DescendantsOfType(dc, topology.TypeCluster)})
		}
	default:
		segs = append(segs, segment{typ, own})
	}
	sc.segs = segs
	return segs
}

// Featurize builds the feature vector for an incident triggered at time t:
// statistics over the look-back window [t-T, t), with each series
// normalized against the preceding window [t-2T, t-T) so that features
// capture *changes* that indicate a failure (§5.2).
func (fb *FeatureBuilder) Featurize(ex Extraction, t float64) []float64 {
	return fb.FeaturizeInto(make([]float64, len(fb.names)), ex, t)
}

// FeaturizeInto is Featurize writing into a caller-owned vector — the
// pooled form the batch and serving paths use so scoring an incident
// produces no per-request feature-vector garbage. x must come from the
// same layout (len(FeatureNames()) cells); a mismatched slice is replaced
// by a fresh one. Every slot is overwritten, so a dirty pooled vector is
// fine. Returns the filled vector.
func (fb *FeatureBuilder) FeaturizeInto(x []float64, ex Extraction, t float64) []float64 {
	if len(x) != len(fb.names) {
		x = make([]float64, len(fb.names))
	}
	sc, _ := fb.scratch.Get().(*featScratch)
	if sc == nil {
		sc = new(featScratch)
	}
	T := fb.cfg.LookbackHours
	slot := 0
	for _, typ := range fb.types {
		segs := fb.contributors(sc, ex, typ)
		for _, g := range fb.groups {
			if !g.coversScope(typ) {
				continue
			}
			if g.isEvent {
				count := 0.0
				for _, d := range g.datasets {
					for _, seg := range segs {
						if !d.CoversType(seg.typ) {
							continue
						}
						for _, comp := range seg.comps {
							count += float64(fb.stats.EventCount(d.Name, comp, t-T, t))
						}
					}
				}
				x[slot] = count
				slot++
				continue
			}
			merged := sc.merged[:0]
			for _, d := range g.datasets {
				for _, seg := range segs {
					if !d.CoversType(seg.typ) {
						continue
					}
					for _, comp := range seg.comps {
						n := len(merged)
						merged = fb.series.AppendSeries(merged, d.Name, comp, t-T, t)
						if len(merged) == n {
							continue // missing data: an outage or an open breaker
						}
						// The baseline window is only ever reduced to its
						// mean and standard deviation — ask the source for
						// the aggregates instead of materializing the values.
						bs, ok := fb.stats.WindowStats(d.Name, comp, t-2*T, t-T)
						normalizeInPlace(merged[n:], bs, ok)
					}
				}
			}
			metrics.SummarizeInPlace(merged).VectorInto(x[slot : slot+len(metrics.SummaryNames)])
			slot += len(metrics.SummaryNames)
			sc.merged = merged // keep the grown capacity for the next group
		}
		x[slot] = float64(len(ex.ByType[typ]))
		slot++
	}
	fb.scratch.Put(sc)
	return x
}

// normalizeInPlace z-scores the current window, where it lies, against the
// baseline window's aggregates, so merged series from different hardware
// are comparable and a distribution shift shows up in the upper/lower
// percentiles. baseOK is false when the baseline window was empty; the
// current window's own mean then centers the values (and the zero std falls
// through to the same floor the materializing implementation used).
func normalizeInPlace(cur []float64, base monitoring.Stats, baseOK bool) {
	mean, std := base.Mean, base.Std
	if !baseOK {
		mean = metrics.Mean(cur)
		std = 0
	}
	if std < 1e-9 {
		std = 1e-9 + math.Abs(mean)*0.01
		if std < 1e-9 {
			std = 1
		}
	}
	for i, v := range cur {
		cur[i] = (v - mean) / std
	}
}

// CPDInput assembles the CPD+ evidence for an incident (§5.2.2): raw series
// and event counts for the implicated devices, or — for broad incidents —
// for every switch and server in the implicated clusters.
func (fb *FeatureBuilder) CPDInput(ex Extraction, t float64) cpd.Input {
	in := cpd.Input{
		Broad:  ex.Broad,
		Series: map[string][][]float64{},
		Events: map[string][]float64{},
	}
	T := fb.cfg.LookbackHours
	// The components examined, as typed segments (see FeaturizeInto): the
	// devices, which is ex.Devices by type, then the cluster scope.
	segs := append(make([]segment, 0, 8), // room for one cluster's scope
		segment{topology.TypeVM, ex.ByType[topology.TypeVM]},
		segment{topology.TypeServer, ex.ByType[topology.TypeServer]},
		segment{topology.TypeSwitch, ex.ByType[topology.TypeSwitch]})
	if ex.Broad {
		// Cap the per-cluster device sample: change-point detection is
		// the expensive path and the cluster-level model consumes
		// *average* rates, which a sample estimates fine.
		const maxPerKind = 8
		cap8 := func(xs []string) []string {
			if len(xs) > maxPerKind {
				return xs[:maxPerKind]
			}
			return xs
		}
		clusters := ex.ByType[topology.TypeCluster]
		for i, cl := range clusters {
			segs = append(segs,
				segment{topology.TypeCluster, clusters[i : i+1]},
				segment{topology.TypeSwitch, cap8(fb.topo.DescendantsOfType(cl, topology.TypeSwitch))},
				segment{topology.TypeServer, cap8(fb.topo.DescendantsOfType(cl, topology.TypeServer))})
		}
		for _, dc := range ex.ByType[topology.TypeDC] {
			segs = append(segs, segment{topology.TypeCluster, cap8(fb.topo.DescendantsOfType(dc, topology.TypeCluster))})
		}
	} else {
		// Narrow incidents still examine the cluster-granularity signals
		// of the devices' clusters (e.g. canary reachability).
		var clusters []string
		for _, d := range ex.Devices {
			if cl := fb.topo.ClusterOf(d); cl != "" && !slices.Contains(clusters, cl) {
				clusters = append(clusters, cl)
			}
		}
		segs = append(segs, segment{topology.TypeCluster, clusters})
	}
	// The doubled windows are carved out of one arena rather than pulled as
	// a slice each. left bounds how many windows are still to come; the
	// first one's length then sizes the arena for all of them.
	left := 0
	for _, g := range fb.groups {
		for _, d := range g.datasets {
			if d.Type == monitoring.Event {
				continue
			}
			for _, seg := range segs {
				if d.CoversType(seg.typ) {
					left += len(seg.comps)
				}
			}
		}
	}
	var arena []float64
	for _, g := range fb.groups {
		for _, d := range g.datasets {
			for _, seg := range segs {
				if !d.CoversType(seg.typ) {
					continue
				}
				for _, comp := range seg.comps {
					if d.Type == monitoring.Event {
						n := fb.stats.EventCount(d.Name, comp, t-T, t)
						in.Events[d.Name] = append(in.Events[d.Name], float64(n))
						continue
					}
					// Use the doubled window so the change point (fault
					// onset) sits inside the series.
					left--
					start := len(arena)
					arena = fb.series.AppendSeries(arena, d.Name, comp, t-2*T, t)
					n := len(arena) - start
					if n == 0 {
						continue
					}
					if start == 0 {
						arena = slices.Grow(arena, n*left)
					}
					// Clipped, so a consumer appending to one series cannot
					// write into the next.
					in.Series[d.Name] = append(in.Series[d.Name], arena[start:len(arena):len(arena)])
				}
			}
		}
	}
	return in
}

// datasetCount counts the datasets the builder consumes.
func (fb *FeatureBuilder) datasetCount() int {
	n := 0
	for _, g := range fb.groups {
		n += len(g.datasets)
	}
	return n
}

// sourceHealth reports the availability picture featurization faces at
// time t: the unavailable datasets in feature-group order and the largest
// admitted staleness (model hours) as a DataHealth, and — appended to avail
// — one availability cell per consumed dataset in that same order. The list
// is the builder's own and fixed, so a position stands for a name and the
// caller's stack array (stackDatasets) holds it. Sources without the
// monitoring.HealthReporter capability fall back to registry presence — a
// dataset deprecated out of Datasets() counts as down, which is exactly the
// §6 "monitoring system disappeared" case.
func (fb *FeatureBuilder) sourceHealth(avail []bool, t float64) ([]bool, DataHealth) {
	h := DataHealth{DatasetsTotal: fb.datasetCount()}
	var registry []monitoring.Descriptor
	if fb.health == nil {
		registry = fb.source.Datasets()
	}
	for _, g := range fb.groups {
		for _, d := range g.datasets {
			ok := false
			if fb.health != nil {
				dh := fb.health.DatasetHealth(d.Name, t)
				ok = dh.Available
				if dh.Staleness > h.MaxStaleness {
					h.MaxStaleness = dh.Staleness
				}
			} else {
				for _, r := range registry {
					if r.Name == d.Name {
						ok = true
						break
					}
				}
			}
			avail = append(avail, ok)
			if !ok {
				h.DatasetsDown = append(h.DatasetsDown, d.Name)
			}
		}
	}
	return avail, h
}

// stackDatasets sizes the availability buffer sourceHealth's callers keep on
// their stack; a builder that consumes more datasets spills to the heap.
const stackDatasets = 16

// GroupDatasets lists the dataset names a feature group consumes (empty
// for class-derived groups that read no telemetry).
func (fb *FeatureBuilder) GroupDatasets(group string) []string {
	for _, g := range fb.groups {
		if g.name != group {
			continue
		}
		out := make([]string, len(g.datasets))
		for i, d := range g.datasets {
			out[i] = d.Name
		}
		return out
	}
	return nil
}

// DatasetNames lists the dataset names the builder consumes (sorted).
func (fb *FeatureBuilder) DatasetNames() []string {
	var out []string
	for _, g := range fb.groups {
		for _, d := range g.datasets {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}
