package main

import (
	"net"
	"slices"
	"testing"
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
