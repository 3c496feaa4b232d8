package main

import (
	"net"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// The admin server takes unauthenticated POST /cap, /uncap and
// /release-all, so by default it must not listen beyond this host.
func TestDefaultAdminAddrIsLoopback(t *testing.T) {
	addr, err := net.ResolveTCPAddr("tcp", defaultAdminAddr)
	if err != nil {
		t.Fatal(err)
	}
	if !addr.IP.IsLoopback() {
		t.Errorf("default -metrics-addr %q resolves to %v, not a loopback address", defaultAdminAddr, addr.IP)
	}
}

func TestParseAggregators(t *testing.T) {
	cases := []struct {
		flag string
		want []endpoint // nil: an error
	}{
		{"127.0.0.1:7421", []endpoint{{"shard-0", "127.0.0.1:7421"}}},
		{" host:7421 ", []endpoint{{"shard-0", "host:7421"}}},
		{"shard-0=h1:7421", []endpoint{{"shard-0", "h1:7421"}}},
		{"shard-0=h1:7421, shard-1=h2:7421", []endpoint{{"shard-0", "h1:7421"}, {"shard-1", "h2:7421"}}},
		{"b=h2:1,a=h1:1", []endpoint{{"b", "h2:1"}, {"a", "h1:1"}}},
		{"shard-0=h1:1,shard-0=h2:1", nil},
		{"h1:1,h2:1", nil},
		{"shard-0=h1:1,h2:1", nil},
		{"shard-0=", nil},
		{"=h1:1", nil},
		{"shard-0=h1:1,", nil},
	}
	for _, c := range cases {
		got, err := parseAggregators(c.flag)
		if c.want == nil {
			if err == nil {
				t.Errorf("parseAggregators(%q) = %v, want an error", c.flag, got)
			}
			continue
		}
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("parseAggregators(%q) = %v, %v; want %v", c.flag, got, err, c.want)
		}
	}
}

// TestIncidentLine: an incident's log line names a target only when
// its action has one, so a no-action incident prints no zero task.
func TestIncidentLine(t *testing.T) {
	victim, mr := model.TaskID{Job: "frontend", Index: 1}, model.TaskID{Job: "mr", Index: 0}
	suspects := []core.Suspect{{Task: mr, Correlation: 0.87}}
	cases := []struct {
		inc  core.Incident
		want string
	}{
		{core.Incident{Victim: victim, VictimCPI: 2.5, Threshold: 1.75, Suspects: suspects},
			"incident: victim=frontend/1 cpi=2.50 threshold=1.75 action=none top-suspect=mr/0 corr=0.87"},
		{core.Incident{Victim: victim, VictimCPI: 2.5, Threshold: 1.75},
			"incident: victim=frontend/1 cpi=2.50 threshold=1.75 action=none"},
		{core.Incident{Victim: victim, VictimCPI: 2.5, Threshold: 1.75, Suspects: suspects, Decision: core.Decision{Action: core.ActionCap, Target: mr}},
			"incident: victim=frontend/1 cpi=2.50 threshold=1.75 action=cap target=mr/0 top-suspect=mr/0 corr=0.87"},
		{core.Incident{Victim: victim, VictimCPI: 2.5, Threshold: 1.75, Decision: core.Decision{Action: core.ActionReport, Target: mr}},
			"incident: victim=frontend/1 cpi=2.50 threshold=1.75 action=report target=mr/0"},
	}
	for _, c := range cases {
		if got := incidentLine(c.inc); got != c.want {
			t.Errorf("incidentLine = %q\nwant           %q", got, c.want)
		}
	}
}
