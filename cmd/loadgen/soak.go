package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"scouts/internal/serving"
)

// SLO is the pass/fail bar a soak run is judged against.
type SLO struct {
	// P99Ms is the latency ceiling: the run fails if p99 exceeds it.
	P99Ms float64 `json:"p99_ms"`
	// MaxErrorRate is the highest acceptable fraction of driven requests
	// that failed in transport or answered non-200.
	MaxErrorRate float64 `json:"max_error_rate"`
}

// SLOResult is the verdict: the measured numbers next to the targets,
// and one violation string per broken promise — empty means Pass.
type SLOResult struct {
	Target     SLO      `json:"target"`
	P99Ms      float64  `json:"p99_ms"`
	ErrorRate  float64  `json:"error_rate"`
	Pass       bool     `json:"pass"`
	Violations []string `json:"violations,omitempty"`
}

// SoakReport is the JSON document a -soak run emits: the usual load
// report plus the server's own telemetry as scraped from /metrics and
// the SLO verdict.
type SoakReport struct {
	Report
	// ScrapeIntervalSec and Scrapes describe the /metrics polling the run
	// performed alongside the load.
	ScrapeIntervalSec float64 `json:"scrape_interval_sec"`
	Scrapes           int     `json:"scrapes"`
	ScrapeErrors      int     `json:"scrape_errors"`
	// Metrics is the final scrape, parsed: every non-histogram-bucket
	// scout_* series keyed by its full name{labels} signature. The
	// server's view of the run — requests it counted, predictions by
	// model, breaker states, sheds, timeouts, recovered panics.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	SLO     SLOResult          `json:"slo"`
}

// runSoak drives sustained load (reusing runLoad, so the traffic and the
// report math are exactly the normal measurement path) while polling
// GET /metrics every scrapeEvery, then judges the run against the SLO.
// The server-side counters from the final scrape ride along in the
// report so a soak artifact carries both views — what the client saw and
// what the server recorded.
func runSoak(client *http.Client, baseURL, mode string, batch, conc int,
	duration, scrapeEvery time.Duration, slo SLO, reqs []serving.PredictRequest) (SoakReport, error) {
	if scrapeEvery <= 0 {
		scrapeEvery = time.Second
	}
	sr := SoakReport{ScrapeIntervalSec: scrapeEvery.Seconds()}

	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if m, err := scrapeMetrics(client, baseURL); err != nil {
					sr.ScrapeErrors++
				} else {
					sr.Metrics = m
				}
				sr.Scrapes++
			}
		}
	}()

	rep, err := runLoad(client, baseURL, mode, batch, conc, duration, reqs)
	close(stop)
	<-scraped
	if err != nil {
		return sr, err
	}
	sr.Report = rep
	sr.Mode = "soak-" + mode

	// One final scrape after the load stops, so Metrics reflects every
	// request the run drove rather than the last mid-flight sample.
	if m, scrapeErr := scrapeMetrics(client, baseURL); scrapeErr != nil {
		sr.ScrapeErrors++
	} else {
		sr.Metrics = m
		sr.Scrapes++
	}

	sr.SLO = judge(slo, &sr)
	return sr, nil
}

// judge renders the verdict from the client-side report and the final
// server-side scrape.
func judge(slo SLO, sr *SoakReport) SLOResult {
	res := SLOResult{Target: slo, P99Ms: sr.P99Ms}
	total := sr.Errors
	ok := 0
	for code, n := range sr.StatusCounts {
		total += n
		if code == "200" {
			ok += n
		}
	}
	if total > 0 {
		res.ErrorRate = float64(total-ok) / float64(total)
	}
	if total == 0 {
		res.Violations = append(res.Violations, "no requests completed")
	}
	if sr.P99Ms > slo.P99Ms {
		res.Violations = append(res.Violations,
			fmt.Sprintf("p99 %.2fms exceeds SLO %.2fms", sr.P99Ms, slo.P99Ms))
	}
	if res.ErrorRate > slo.MaxErrorRate {
		res.Violations = append(res.Violations,
			fmt.Sprintf("error rate %.4f exceeds SLO %.4f", res.ErrorRate, slo.MaxErrorRate))
	}
	// The server's own counters veto too: a recovered panic means a
	// request crashed a handler even if the client only saw a tidy 500.
	if n := sr.Metrics["scout_http_panics_recovered_total"]; n > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("server recovered %.0f handler panics during the run", n))
	}
	res.Pass = len(res.Violations) == 0
	return res
}

// scrapeMetrics GETs /metrics and parses the Prometheus text format into
// a flat map. Histogram bucket series are skipped — the cumulative
// bucket counts are scrape plumbing, not run evidence — while _sum and
// _count stay, so server-side latency totals survive into the report.
func scrapeMetrics(client *http.Client, baseURL string) (map[string]float64, error) {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(body))
}

// parseProm parses Prometheus 0.0.4 text exposition: one "series value"
// per line, # lines ignored. Series with an le label (histogram buckets)
// are dropped.
func parseProm(text string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("unparseable metrics line %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		if hasLeLabel(series) {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad sample %q: %v", line, err)
		}
		out[series] = f
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("metrics payload carried no samples")
	}
	return out, nil
}

// hasLeLabel reports whether a series name{k="v",...} carries a label
// whose key is exactly le — a histogram bucket. Values are skipped as
// quoted strings with backslash escapes, so neither a key that merely
// ends in le (handle="x") nor a value holding le=" can pass for one.
func hasLeLabel(series string) bool {
	_, labels, ok := strings.Cut(series, "{")
	for ok {
		key, rest, found := strings.Cut(labels, `="`)
		if !found {
			return false
		}
		if key == "le" {
			return true
		}
		i := 0
		for i < len(rest) && rest[i] != '"' {
			if rest[i] == '\\' {
				i++ // an escaped character
			}
			i++
		}
		if i >= len(rest) {
			return false
		}
		labels, ok = strings.CutPrefix(rest[i+1:], ",")
	}
	return false
}

// metricNames returns the sorted series keys — handy for tests and for
// eyeballing what a scrape carried.
func metricNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
