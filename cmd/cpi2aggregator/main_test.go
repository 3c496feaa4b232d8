package main

import (
	"slices"
	"strings"
	"testing"
)

func TestShardRing(t *testing.T) {
	cases := []struct {
		shardID, ring string
		members       []string // nil: an error naming the shard
	}{
		{"shard-0", "", []string{"shard-0"}}, // the flag defaults
		{"shard-1", "", []string{"shard-1"}},
		{"shard-0", "shard-0,shard-0", []string{"shard-0"}},
		{"shard-1", "shard-1,shard-0,shard-1", []string{"shard-0", "shard-1"}},
		{"shard-2", "shard-0,shard-1,shard-2", []string{"shard-0", "shard-1", "shard-2"}},
		{"shard-0", "a,b", nil},
		{"shard-3", "shard-0,shard-1", nil},
		{"", "", nil},
	}
	for _, c := range cases {
		ring, err := shardRing(c.shardID, c.ring)
		if c.members == nil {
			if err == nil || !strings.Contains(err.Error(), c.shardID+" is not a member of -ring") {
				t.Errorf("shardRing(%q, %q) = %v, %v; want a not-a-member error", c.shardID, c.ring, ring, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("shardRing(%q, %q): %v", c.shardID, c.ring, err)
			continue
		}
		if !slices.Equal(ring.Members(), c.members) {
			t.Errorf("shardRing(%q, %q) members = %v, want %v", c.shardID, c.ring, ring.Members(), c.members)
		}
	}
}
