package obs

import (
	"fmt"
	"regexp"
	"strings"
)

// LintMetricsText checks a Prometheus text exposition (as produced by
// Registry.WriteText) against the repository's metric-name
// conventions and returns one message per violation:
//
//   - every family is prefixed cpi2_
//   - counter families end in _total
//   - histogram families measuring time end in _seconds
//   - no family is declared twice (duplicate # TYPE lines)
//   - every label name is one of action, reason, shard (or a histogram's
//     le): labels whose values form a small closed set. A label valued by
//     job, task or machine grows a family without bound — that is a
//     question for /debug/specs or the event log, not for /metrics
//
// It is the CI backstop that keeps new SLI families from drifting:
// the e2e tests feed it every registry they build.
func LintMetricsText(text string) []string {
	var problems []string
	seen := make(map[string]bool)
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "#") {
			for _, m := range sampleLabelRE.FindAllStringSubmatch(line, -1) {
				series, l := line[:strings.IndexByte(line, '{')], m[1]
				if !boundedLabels[l] && !seen[series+"{"+l] {
					seen[series+"{"+l] = true
					problems = append(problems, fmt.Sprintf("series %s has label %q, outside the closed set action/reason/shard", series, l))
				}
			}
			continue
		}
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			problems = append(problems, fmt.Sprintf("malformed TYPE line: %q", line))
			continue
		}
		name, typ := fields[2], fields[3]
		if seen[name] {
			problems = append(problems, fmt.Sprintf("duplicate metric family %s", name))
		}
		seen[name] = true
		if !strings.HasPrefix(name, "cpi2_") {
			problems = append(problems, fmt.Sprintf("metric %s lacks the cpi2_ prefix", name))
		}
		switch typ {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				problems = append(problems, fmt.Sprintf("counter %s lacks the _total suffix", name))
			}
		case "histogram":
			// Every histogram in this repo measures durations; a future
			// size histogram would extend this allowlist (_bytes, …).
			if !strings.HasSuffix(name, "_seconds") {
				problems = append(problems, fmt.Sprintf("histogram %s lacks the _seconds suffix", name))
			}
		case "gauge":
			if strings.HasSuffix(name, "_total") {
				problems = append(problems, fmt.Sprintf("gauge %s misuses the counter _total suffix", name))
			}
		default:
			problems = append(problems, fmt.Sprintf("metric %s has unknown type %s", name, typ))
		}
	}
	return problems
}

// boundedLabels is the closed label set; sampleLabelRE finds the label
// names of one sample line, `series{k="v",…} value`. Values are escaped
// by the exposition format (a quote inside one is \"), so `="` only
// ever follows a label name.
var (
	boundedLabels = map[string]bool{"action": true, "reason": true, "shard": true, "le": true}
	sampleLabelRE = regexp.MustCompile(`[{,]([a-zA-Z_][a-zA-Z0-9_]*)="`)
)
