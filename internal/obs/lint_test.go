package obs

import (
	"strings"
	"testing"
)

// TestLintLabelNames: the closed label set is enforced on rendered
// text, once per offending (series, label), and label values full of
// exposition-format syntax do not confuse the scan.
func TestLintLabelNames(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("cpi2_ok_total", "", "action", "shard").With(`a\"},job="x`, "0").Inc()
	r.CounterVec("cpi2_ok_by_reason_total", "", "reason").With("").Inc()
	r.Histogram("cpi2_ok_seconds", "", []float64{1}).Observe(1)
	if got := LintMetricsText(r.Render()); len(got) != 0 {
		t.Errorf("lint flagged allowed labels: %q\n%s", got, r.Render())
	}
	bad := r.CounterVec("cpi2_bad_total", "", "reason", "job")
	bad.With("x", "websearch").Inc()
	bad.With("y", "bigtable").Inc()
	got := LintMetricsText(r.Render())
	if len(got) != 1 || !strings.Contains(got[0], "cpi2_bad_total") || !strings.Contains(got[0], `"job"`) {
		t.Errorf("lint findings = %q, want exactly one naming cpi2_bad_total and its job label", got)
	}
}
