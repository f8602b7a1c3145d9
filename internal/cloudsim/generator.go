package cloudsim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"scouts/internal/incident"
	"scouts/internal/topology"
)

// Params configure trace generation.
type Params struct {
	// Seed drives all randomness; the same seed reproduces the trace.
	Seed int64
	// Days is the trace length (default 270 ≈ the paper's nine months).
	Days int
	// IncidentsPerDay is the mean arrival rate (default 16).
	IncidentsPerDay float64
	// Topology sizes the synthetic datacenters.
	Topology topology.Params
	// LabelNoise is the fraction of incidents whose recorded owner is
	// wrong because the transfer was never made official (§8; default 0.03).
	LabelNoise float64
	// MentionDropCRI is the probability a customer-reported incident
	// arrives with no machine-readable component names (§7.4; default 0.2).
	MentionDropCRI float64
	// NovelStartDay is the day the emergent incident family
	// ("optics-brownout") starts occurring, reproducing the §7.3 concept
	// drift. Default: 60% of the way through the trace. Negative disables
	// the family entirely.
	NovelStartDay int
}

func (p Params) withDefaults() Params {
	if p.Days <= 0 {
		p.Days = 270
	}
	if p.IncidentsPerDay <= 0 {
		p.IncidentsPerDay = 16
	}
	if p.LabelNoise < 0 {
		p.LabelNoise = 0
	} else if p.LabelNoise == 0 {
		p.LabelNoise = 0.03
	}
	if p.MentionDropCRI == 0 {
		p.MentionDropCRI = 0.2
	}
	if p.NovelStartDay == 0 {
		p.NovelStartDay = p.Days * 6 / 10
	}
	return p
}

// Generator builds synthetic incident traces over a cloud.
type Generator struct {
	params Params
	topo   *topology.Topology
	tel    *Telemetry
	rng    *rand.Rand

	defs        []scenarioDef
	totalWeight float64

	dcs               []string
	clusters          []string
	clustersByDC      map[string][]string
	torsByCluster     map[string][]string
	switchesByCluster map[string][]string
	serversByCluster  map[string][]string

	nextID int
}

// New creates a generator (and its topology + telemetry).
func New(p Params) *Generator {
	p = p.withDefaults()
	topo := topology.Build(p.Topology)
	g := &Generator{
		params:            p,
		topo:              topo,
		tel:               NewTelemetry(topo, p.Seed),
		rng:               rand.New(rand.NewSource(p.Seed)),
		defs:              catalogue(),
		clustersByDC:      map[string][]string{},
		torsByCluster:     map[string][]string{},
		switchesByCluster: map[string][]string{},
		serversByCluster:  map[string][]string{},
	}
	for _, d := range g.defs {
		g.totalWeight += d.weight
	}
	g.dcs = topo.Names(topology.TypeDC)
	g.clusters = topo.Names(topology.TypeCluster)
	for _, dc := range g.dcs {
		g.clustersByDC[dc] = topo.DescendantsOfType(dc, topology.TypeCluster)
	}
	for _, cl := range g.clusters {
		for _, sw := range topo.DescendantsOfType(cl, topology.TypeSwitch) {
			g.switchesByCluster[cl] = append(g.switchesByCluster[cl], sw)
			if strings.HasPrefix(sw, "tor") {
				g.torsByCluster[cl] = append(g.torsByCluster[cl], sw)
			}
		}
		g.serversByCluster[cl] = topo.DescendantsOfType(cl, topology.TypeServer)
	}
	return g
}

// Telemetry returns the telemetry source (with all anomalies registered so
// far).
func (g *Generator) Telemetry() *Telemetry { return g.tel }

// Topology returns the generated topology.
func (g *Generator) Topology() *topology.Topology { return g.topo }

// Generate produces the full incident trace. It can be called once per
// generator (anomalies accumulate in the telemetry model).
func (g *Generator) Generate() *incident.Log {
	log := &incident.Log{}
	t := 24.0 // start on day 1 so look-back windows never go negative
	horizon := float64(g.params.Days) * 24
	for t < horizon {
		// Poisson arrivals.
		t += g.rng.ExpFloat64() * 24 / g.params.IncidentsPerDay
		if t >= horizon {
			break
		}
		log.Append(g.generateOne(t))
	}
	return log
}

// pickScenario samples the catalogue by weight, honoring emergent-family
// start days.
func (g *Generator) pickScenario(t float64) scenarioDef {
	day := int(t / 24)
	for {
		r := g.rng.Float64() * g.totalWeight
		var picked scenarioDef
		for _, d := range g.defs {
			r -= d.weight
			if r <= 0 {
				picked = d
				break
			}
		}
		if picked.build == nil {
			picked = g.defs[len(g.defs)-1]
		}
		start := picked.startDay
		if start == -1 {
			if g.params.NovelStartDay < 0 {
				continue // family disabled
			}
			start = g.params.NovelStartDay
		}
		if day >= start {
			return picked
		}
		// Not yet active: redraw.
	}
}

// genericSymptomP is the probability that a scenario's incident arrives
// with generic symptom wording instead of its distinctive template. The
// same "VMs cannot connect / I/O times out" text can be caused by the
// physical network, the host network, storage or the hypervisor — §3.3's
// observation that "the text of the incident often describes the symptoms
// observed but does not reflect the actual state of the network's
// components". Text-only routing cannot separate these; monitoring can.
var genericSymptomP = map[string]float64{
	"tor-failure":     0.25,
	"switch-drops":    0.2,
	"storage-latency": 0.3,
	"hostnet-vswitch": 0.25,
	"compute-host":    0.2,
	"slb-vip-drop":    0.15,
}

// makeGeneric rewrites a fault's incident text with the shared symptom
// template, keeping only the symptom-level component mentions (the
// affected VM and cluster — reporters see impact, not cause).
func (g *Generator) makeGeneric(f *fault) {
	cluster := ""
	vm := ""
	for _, m := range f.mentioned {
		c, ok := g.topo.Lookup(m)
		if !ok {
			continue
		}
		switch c.Type {
		case topology.TypeCluster:
			if cluster == "" {
				cluster = m
			}
		case topology.TypeVM:
			if vm == "" {
				vm = m
			}
		}
	}
	if cluster == "" {
		for _, m := range f.mentioned {
			if cl := g.topo.ClusterOf(m); cl != "" {
				cluster = cl
				break
			}
		}
	}
	if cluster == "" {
		return // cannot anchor the symptom anywhere; keep original text
	}
	if vm == "" {
		vms := g.topo.DescendantsOfType(cluster, topology.TypeVM)
		if len(vms) > 0 {
			vm = vms[g.rng.Intn(len(vms))]
		}
	}
	f.title = fmt.Sprintf("VM connectivity issues in %s", cluster)
	f.body = fmt.Sprintf("Multiple VMs in cluster %s (e.g. %s) report connection resets, slow virtual disks "+
		"and I/O timeouts. Symptoms are intermittent; impact assessment ongoing.", cluster, vm)
	f.mentioned = []string{cluster}
	if vm != "" {
		f.mentioned = append(f.mentioned, vm)
	}
}

func (g *Generator) generateOne(t float64) *incident.Incident {
	def := g.pickScenario(t)
	f := def.build(g, t, g.rng)
	if p := genericSymptomP[def.name]; p > 0 && g.rng.Float64() < p {
		g.makeGeneric(f)
	}
	for _, a := range f.anomalies {
		g.tel.AddAnomaly(a)
	}

	g.nextID++
	in := &incident.Incident{
		ID:        fmt.Sprintf("INC-%06d", g.nextID),
		Title:     f.title,
		Body:      f.body,
		CreatedAt: t,
		TrueOwner: f.owner,
		RootCause: f.rootCause,
	}

	// Severity.
	pHigh := 0.07
	if f.pHighSev > 0 {
		pHigh = f.pHighSev
	}
	switch r := g.rng.Float64(); {
	case r < pHigh:
		in.Severity = incident.SevHigh
	case r < pHigh+0.35:
		in.Severity = incident.SevMedium
	default:
		in.Severity = incident.SevLow
	}

	// Who notices first?
	detector := g.sampleDetector(f.detectors)
	if detector == TeamCustomer {
		in.Source = incident.SourceCustomer
		in.CreatedBy = ""
	} else {
		in.Source = incident.SourceMonitor
		in.CreatedBy = detector
	}

	// Component mentions. CRIs often arrive without machine-readable names;
	// the first investigating teams append them (§7.4).
	in.Components = append([]string(nil), f.mentioned...)
	in.InitialComponents = in.Components
	if in.Source == incident.SourceCustomer && g.rng.Float64() < g.params.MentionDropCRI {
		in.InitialComponents = nil
		in.Body = stripMentions(in.Body, f.mentioned)
	}

	// Route it the way operators do today.
	g.simulateRouting(in, f, detector)

	// Conversation noise (§7): as teams investigate they append notes, and
	// "the text of the incident is often noisy — it contains logs of
	// conversation which often lead the ML model astray". The notes
	// mention the *investigating* teams' domains, which correlate with the
	// routing path, not the root cause.
	for _, team := range in.Teams() {
		if team == in.OwnerLabel || team == TeamSupport {
			continue
		}
		if g.rng.Float64() < 0.75 {
			in.Body += fmt.Sprintf("\nUpdate from %s on-call: investigated %s; %s look healthy, no conclusive findings.",
				team, teamJargon[team], teamJargon[team])
		}
	}

	// Label noise: the closing team never officially transferred (§8).
	if g.params.LabelNoise > 0 && g.rng.Float64() < g.params.LabelNoise && len(in.Hops) > 1 {
		for i := len(in.Hops) - 1; i >= 0; i-- {
			if in.Hops[i].Team != in.OwnerLabel {
				in.OwnerLabel = in.Hops[i].Team
				break
			}
		}
	}
	return in
}

// sampleDetector draws a detecting team in proportion to weights, walking
// a fixed team list so the draw is a function of the generator's seed. A
// draw that rounding carries past the last weight goes to the last team
// that has one.
func (g *Generator) sampleDetector(weights map[string]float64) string {
	order := append(append([]string(nil), Teams...), TeamSupport, TeamCustomer)
	var total float64
	last := TeamSupport
	for _, team := range order {
		if w, ok := weights[team]; ok {
			total += w
			last = team
		}
	}
	r := g.rng.Float64() * total
	for _, team := range order {
		w, ok := weights[team]
		if !ok {
			continue
		}
		r -= w
		if r <= 0 {
			return team
		}
	}
	return last
}

// stripMentions removes component names from CRI text, imitating customers
// who describe symptoms without machine identifiers.
func stripMentions(body string, mentioned []string) string {
	for _, m := range mentioned {
		body = strings.ReplaceAll(body, m, "their resource")
	}
	return body
}

// dwell times ---------------------------------------------------------------

// innocentTime is how long a team needs to prove its innocence.
func (g *Generator) innocentTime(sev incident.Severity, hardness float64) float64 {
	mean := 1.2
	if sev == incident.SevMedium {
		mean = 1.6
	}
	if sev == incident.SevHigh {
		mean = 2.0
	}
	return lognormalish(g.rng, mean*hardness)
}

// ownerTime is how long the responsible team needs to mitigate.
func (g *Generator) ownerTime(sev incident.Severity, hardness float64) float64 {
	mean := 2.0
	if sev == incident.SevMedium {
		mean = 3.0
	}
	if sev == incident.SevHigh {
		mean = 4.5
	}
	return lognormalish(g.rng, mean*hardness)
}

// lognormalish samples a positive duration with the given mean and a heavy
// right tail (investigation-time distributions are famously skewed).
func lognormalish(rng *rand.Rand, mean float64) float64 {
	sigma := 0.6
	mu := math.Log(mean) - sigma*sigma/2
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// simulateRouting walks the incident through teams the way §3.2 describes:
// start at the detecting team (or the support desk for CRIs), have each
// team spend time proving innocence, and move along dependency-folklore
// suspect lists until the responsible team is found — or, when nobody
// inside the provider is at fault, until enough teams have ruled
// themselves out.
func (g *Generator) simulateRouting(in *incident.Incident, f *fault, detector string) {
	owner := f.owner
	in.OwnerLabel = owner
	now := in.CreatedAt

	// Mis-routed paths are a biased, intrinsically harder sample (§3.1):
	// apply an extra difficulty multiplier when the first team is wrong.
	hardness := f.hardness

	current := detector
	if in.Source == incident.SourceCustomer {
		// The 24x7 support team triages CRIs with run-books, specialized
		// tools and the NLP recommender (§2). A good share goes straight
		// to the responsible team; support's short triage is folded into
		// that team's hop. The rest bounce through suspects below.
		if owner != TeamCustomer && g.rng.Float64() < 0.4 {
			d := g.ownerTime(in.Severity, hardness)
			in.Hops = append(in.Hops, incident.Hop{Team: owner, Enter: now, Exit: now + d})
			return
		}
		current = TeamSupport
	}

	// Highest-severity incidents are war-roomed: everyone joins and the
	// owner is found almost immediately, so routing accuracy barely
	// matters (§3.1: only 0.15% improvement possible).
	if in.Severity == incident.SevHigh && owner != TeamCustomer && g.rng.Float64() < 0.9 {
		if current != owner {
			d := 0.1 + 0.1*g.rng.Float64()
			in.Hops = append(in.Hops, incident.Hop{Team: current, Enter: now, Exit: now + d})
			now += d
		}
		d := g.ownerTime(in.Severity, hardness)
		in.Hops = append(in.Hops, incident.Hop{Team: owner, Enter: now, Exit: now + d})
		return
	}

	if owner == TeamCustomer {
		g.routeCustomerCaused(in, f, now)
		return
	}

	misrouted := current != owner
	if misrouted {
		// Mis-routed incidents are an intrinsically harder sample (§3.1:
		// they take 10x longer on average, and "mis-routing may indicate
		// the incident is intrinsically harder to resolve").
		hardness *= 2.5 + 4*g.rng.Float64()
	}

	visited := map[string]bool{}
	const maxHops = 11
	for hop := 0; hop < maxHops; hop++ {
		visited[current] = true
		if current == owner {
			d := g.ownerTime(in.Severity, hardness)
			in.Hops = append(in.Hops, incident.Hop{Team: owner, Enter: now, Exit: now + d})
			return
		}
		d := g.innocentTime(in.Severity, hardness)
		in.Hops = append(in.Hops, incident.Hop{Team: current, Enter: now, Exit: now + d})
		now += d

		// Choose the next team: knowledge of the true owner accrues as
		// teams attach their findings to the incident.
		pKnow := 0.3 + 0.18*float64(hop)
		if g.rng.Float64() < pKnow {
			current = owner
			continue
		}
		// The physical network is a legitimate suspect for almost any
		// connectivity symptom, so innocent teams disproportionately rule
		// it in (§3: PhyNet receives 1 in 10 mis-routed incidents, other
		// teams 1 in 100 to 1 in 1000). The suspicion grows as easier
		// explanations are exhausted, so PhyNet tends to be dragged in
		// mid-investigation rather than at the very first transfer.
		pPhyNet := 0.18 + 0.12*float64(hop)
		if pPhyNet > 0.5 {
			pPhyNet = 0.5
		}
		if owner != TeamPhyNet && !visited[TeamPhyNet] && g.rng.Float64() < pPhyNet {
			current = TeamPhyNet
			continue
		}
		next := ""
		unvisited := make([]string, 0, 4)
		for _, s := range SuspectsOf(current) {
			if !visited[s] && s != TeamSupport {
				unvisited = append(unvisited, s)
			}
		}
		if len(unvisited) > 0 {
			// Habit says the first suspect, but operators are not
			// deterministic (§3.2).
			if g.rng.Float64() < 0.6 {
				next = unvisited[0]
			} else {
				next = unvisited[g.rng.Intn(len(unvisited))]
			}
		}
		if next == "" {
			// Folklore exhausted: pick any unvisited team, else the owner.
			for _, team := range Teams {
				if !visited[team] {
					next = team
					break
				}
			}
		}
		if next == "" {
			next = owner
		}
		current = next
	}
	// Safety net: resolve at the owner.
	d := g.ownerTime(in.Severity, hardness)
	in.Hops = append(in.Hops, incident.Hop{Team: owner, Enter: now, Exit: now + d})
}

// routeCustomerCaused models the file-share example: several internal teams
// (almost always including PhyNet) rule themselves out before support
// concludes the customer's environment is at fault.
func (g *Generator) routeCustomerCaused(in *incident.Incident, f *fault, now float64) {
	d := 0.3 + 0.4*g.rng.Float64()
	in.Hops = append(in.Hops, incident.Hop{Team: TeamSupport, Enter: now, Exit: now + d})
	now += d

	nTeams := 3 + g.rng.Intn(5) // 3..7 internal teams get involved
	order := []string{TeamCompute, TeamStorage, TeamPhyNet, TeamSLB, TeamHostNet, TeamDNS, TeamFirewall}
	// PhyNet is engaged in nearly every such investigation (§3.2: 28
	// incidents, PhyNet engaged in each); keep it in the first three.
	g.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	placed := false
	for i := 0; i < 3 && i < len(order); i++ {
		if order[i] == TeamPhyNet {
			placed = true
		}
	}
	if !placed && g.rng.Float64() < 0.9 {
		order[g.rng.Intn(3)] = TeamPhyNet
	}
	seen := map[string]bool{}
	count := 0
	for _, team := range order {
		if count >= nTeams || seen[team] {
			continue
		}
		seen[team] = true
		count++
		dt := g.innocentTime(in.Severity, f.hardness)
		in.Hops = append(in.Hops, incident.Hop{Team: team, Enter: now, Exit: now + dt})
		now += dt
	}
	// Support closes it against the customer.
	dt := 0.2 + 0.3*g.rng.Float64()
	in.Hops = append(in.Hops, incident.Hop{Team: TeamSupport, Enter: now, Exit: now + dt})
	in.OwnerLabel = TeamCustomer
}
