// Package core implements the paper's primary contribution: the Scout
// framework (§4–§5). A Scout is a per-team, ML-assisted gate-keeper that
// takes an incident plus the team's monitoring data and answers "is this
// team responsible?" with a confidence score and an explanation.
//
// The framework takes a configuration file (the operator's only required
// input), extracts the components an incident implicates, pulls the
// relevant monitoring data, builds fixed-length per-component-type feature
// vectors, and routes each incident through a model selector that chooses
// between a supervised random forest (most incidents) and the unsupervised
// CPD+ detector (new or rare incidents).
package core

import (
	"bufio"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"scouts/internal/topology"
)

// ExcludeRule is one EXCLUDE statement of the configuration (§5.3):
// incidents or components that are explicitly out of the team's scope.
type ExcludeRule struct {
	// Field is "TITLE", "BODY", or a component type ("switch", ...).
	Field string
	Re    *regexp.Regexp
}

// MonitoringRef selects one dataset from the data source, optionally
// overriding its class tag.
type MonitoringRef struct {
	Name  string
	Class string
}

// Config is the parsed Scout configuration file.
type Config struct {
	// Source is the original configuration text (retained so trained
	// Scouts can be snapshotted and restored elsewhere).
	Source string
	// Team is the owning team's name.
	Team string
	// LookbackHours is T in the paper's [t-T, t] feature window (§5.2;
	// the evaluation uses two hours).
	LookbackHours float64
	// Extractors map component types to the regular expressions that find
	// them in incident text (§5.1); ParseConfig builds the finders from them.
	Extractors map[topology.ComponentType]*regexp.Regexp
	// Monitoring lists the datasets this Scout uses. Empty means "every
	// dataset the data source advertises".
	Monitoring []MonitoringRef
	// Excludes are the out-of-scope rules.
	Excludes []ExcludeRule
	// MaxDevicesNarrow is the §5.2.2 "handful of devices" threshold: at
	// most this many device-level components keeps an incident "narrow"
	// for CPD+ (default 5).
	MaxDevicesNarrow int
	// finders holds one read-only match enumerator per extractor, by
	// typeOrder position, shared by every FeatureBuilder of the Config.
	finders [len(typeOrder)]*finder
}

// ParseConfig parses the Scout configuration DSL:
//
//	TEAM PhyNet;
//	LOOKBACK 2h;
//	let vm      = <vm\d+\.c\d+\.dc\d+>;
//	let server  = <srv\d+\.c\d+\.dc\d+>;
//	let switch  = <(?:tor|agg)\d+\.c\d+\.dc\d+>;
//	let cluster = <c\d+\.dc\d+>;
//	let dc      = <dc\d+>;
//	MONITORING pingmesh   = CREATE_MONITORING(store://phynet/pingmesh, {component=server}, TIME_SERIES, LATENCY);
//	MONITORING linkdrop   = CREATE_MONITORING(store://phynet/linkdrop, {component=switch}, EVENT, DROPS, class=drops);
//	EXCLUDE switch = <decom\d+.*>;
//	EXCLUDE TITLE  = <planned maintenance>;
//
// Lines starting with '#' are comments. Statements end with ';'.
func ParseConfig(src string) (*Config, error) {
	cfg := &Config{
		Source:           src,
		LookbackHours:    2,
		Extractors:       map[topology.ComponentType]*regexp.Regexp{},
		MaxDevicesNarrow: 5,
	}
	sc := bufio.NewScanner(strings.NewReader(src))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		line = strings.TrimSuffix(line, ";")
		if err := cfg.parseLine(line); err != nil {
			return nil, fmt.Errorf("config line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cfg.Team == "" {
		return nil, fmt.Errorf("config: missing TEAM statement")
	}
	if len(cfg.Extractors) == 0 {
		return nil, fmt.Errorf("config: at least one 'let <type> = <regex>' extractor is required")
	}
	return cfg, nil
}

func (c *Config) parseLine(line string) error {
	switch {
	case strings.HasPrefix(line, "TEAM "):
		c.Team = strings.TrimSpace(strings.TrimPrefix(line, "TEAM "))
		return nil
	case strings.HasPrefix(line, "LOOKBACK "):
		v := strings.TrimSpace(strings.TrimPrefix(line, "LOOKBACK "))
		v = strings.TrimSuffix(v, "h")
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			return fmt.Errorf("bad LOOKBACK %q (want e.g. '2h')", v)
		}
		c.LookbackHours = f
		return nil
	case strings.HasPrefix(line, "NARROW_DEVICES "):
		v := strings.TrimSpace(strings.TrimPrefix(line, "NARROW_DEVICES "))
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return fmt.Errorf("bad NARROW_DEVICES %q", v)
		}
		c.MaxDevicesNarrow = n
		return nil
	case strings.HasPrefix(line, "let "):
		return c.parseLet(strings.TrimPrefix(line, "let "))
	case strings.HasPrefix(line, "MONITORING "):
		return c.parseMonitoring(strings.TrimPrefix(line, "MONITORING "))
	case strings.HasPrefix(line, "EXCLUDE "):
		return c.parseExclude(strings.TrimPrefix(line, "EXCLUDE "))
	default:
		return fmt.Errorf("unrecognized statement %q", line)
	}
}

// splitAssign splits "name = value" and unwraps <...> regex delimiters.
func splitAssign(s string) (name, value string, err error) {
	i := strings.Index(s, "=")
	if i < 0 {
		return "", "", fmt.Errorf("expected '=' in %q", s)
	}
	name = strings.TrimSpace(s[:i])
	value = strings.TrimSpace(s[i+1:])
	if strings.HasPrefix(value, "<") && strings.HasSuffix(value, ">") {
		value = value[1 : len(value)-1]
	}
	if name == "" || value == "" {
		return "", "", fmt.Errorf("empty name or value in %q", s)
	}
	return name, value, nil
}

func (c *Config) parseLet(rest string) error {
	name, value, err := splitAssign(rest)
	if err != nil {
		return err
	}
	typ := topology.ComponentType(strings.ToLower(name))
	k := typeSlot(typ) // typeOrder holds every component type
	if k < 0 {
		return fmt.Errorf("unknown component type %q", name)
	}
	re, err := regexp.Compile(value)
	if err != nil {
		return fmt.Errorf("bad regex for %s: %w", name, err)
	}
	c.Extractors[typ], c.finders[k] = re, newFinder(re)
	return nil
}

func (c *Config) parseMonitoring(rest string) error {
	name, value, err := splitAssign(rest)
	if err != nil {
		return err
	}
	if !strings.HasPrefix(value, "CREATE_MONITORING(") || !strings.HasSuffix(value, ")") {
		return fmt.Errorf("MONITORING %s: expected CREATE_MONITORING(...)", name)
	}
	args := value[len("CREATE_MONITORING(") : len(value)-1]
	ref := MonitoringRef{Name: name}
	for _, a := range strings.Split(args, ",") {
		a = strings.TrimSpace(a)
		if strings.HasPrefix(a, "class=") {
			ref.Class = strings.TrimPrefix(a, "class=")
		}
	}
	c.Monitoring = append(c.Monitoring, ref)
	return nil
}

func (c *Config) parseExclude(rest string) error {
	name, value, err := splitAssign(rest)
	if err != nil {
		return err
	}
	field := strings.ToUpper(name)
	if field != "TITLE" && field != "BODY" {
		// Component-type exclusion; keep the lower-case type name.
		field = strings.ToLower(name)
		typ := topology.ComponentType(field)
		valid := false
		for _, t := range topology.AllTypes {
			if typ == t {
				valid = true
			}
		}
		if !valid {
			return fmt.Errorf("EXCLUDE target %q is neither TITLE, BODY nor a component type", name)
		}
	}
	re, err := regexp.Compile(value)
	if err != nil {
		return fmt.Errorf("bad EXCLUDE regex: %w", err)
	}
	c.Excludes = append(c.Excludes, ExcludeRule{Field: field, Re: re})
	return nil
}

// UsesDataset reports whether the config selects the dataset (an empty
// Monitoring list selects everything).
func (c *Config) UsesDataset(name string) bool {
	if len(c.Monitoring) == 0 {
		return true
	}
	for _, m := range c.Monitoring {
		if m.Name == name {
			return true
		}
	}
	return false
}

// ClassOverride returns the class tag override for a dataset ("" if none).
func (c *Config) ClassOverride(name string) string {
	for _, m := range c.Monitoring {
		if m.Name == name {
			return m.Class
		}
	}
	return ""
}

// DefaultPhyNetConfig is the configuration of the deployed PhyNet Scout
// over the synthetic cloud's naming scheme and the twelve Table 2 datasets.
const DefaultPhyNetConfig = `
# PhyNet Scout configuration (§5.1, §6).
TEAM PhyNet;
LOOKBACK 2h;

let vm      = <\bvm\d+\.c\d+\.dc\d+\b>;
let server  = <\bsrv\d+\.c\d+\.dc\d+\b>;
let switch  = <\b(?:tor|agg)\d+\.c\d+\.dc\d+\b>;
let cluster = <\bc\d+\.dc\d+\b>;
let dc      = <\bdc\d+\b>;

MONITORING pingmesh    = CREATE_MONITORING(store://phynet/pingmesh,    {component=server},  TIME_SERIES, LATENCY);
MONITORING linkdrop    = CREATE_MONITORING(store://phynet/linkdrop,   {component=switch},  EVENT, DROPS, class=drops);
MONITORING switchdrop  = CREATE_MONITORING(store://phynet/switchdrop, {component=switch},  EVENT, DROPS, class=drops);
MONITORING canary      = CREATE_MONITORING(store://phynet/canary,     {component=cluster}, TIME_SERIES, REACHABILITY);
MONITORING reboots     = CREATE_MONITORING(store://phynet/reboots,    {component=device},  EVENT, REBOOTS);
MONITORING linkloss    = CREATE_MONITORING(store://phynet/linkloss,   {component=switch},  TIME_SERIES, LOSS);
MONITORING fcs         = CREATE_MONITORING(store://phynet/fcs,        {component=switch},  EVENT, CORRUPTION);
MONITORING syslog      = CREATE_MONITORING(store://phynet/syslog,     {component=switch},  EVENT, SYSLOG);
MONITORING pfc         = CREATE_MONITORING(store://phynet/pfc,        {component=switch},  TIME_SERIES, PFC);
MONITORING ifcounters  = CREATE_MONITORING(store://phynet/ifcounters, {component=switch},  TIME_SERIES, DROPS);
MONITORING temperature = CREATE_MONITORING(store://phynet/temperature,{component=device},  TIME_SERIES, TEMPERATURE);
MONITORING cpu         = CREATE_MONITORING(store://phynet/cpu,        {component=device},  TIME_SERIES, CPU_UTIL);

# Decommissioned switches have been handed to the DC-ops team (§5.3).
EXCLUDE switch = <decom\d+.*>;
EXCLUDE TITLE  = <planned maintenance>;
`
