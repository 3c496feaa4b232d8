package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"
)

func TestDeterministicIDs(t *testing.T) {
	a := SampleTraceID("m003", 17)
	b := SampleTraceID("m003", 17)
	if a != b {
		t.Fatalf("SampleTraceID not deterministic: %q vs %q", a, b)
	}
	if a == SampleTraceID("m004", 17) || a == SampleTraceID("m003", 18) {
		t.Fatalf("SampleTraceID collides across machine/seq")
	}
	if len(a) != 16 {
		t.Fatalf("SampleTraceID length = %d, want 16", len(a))
	}

	at := time.Date(2011, 11, 1, 3, 0, 0, 0, time.UTC)
	s1 := SpecTraceID("websearch@B", at)
	if s1 != SpecTraceID("websearch@B", at) {
		t.Fatalf("SpecTraceID not deterministic")
	}
	if s1 == SpecTraceID("websearch@B", at.Add(time.Second)) {
		t.Fatalf("SpecTraceID ignores UpdatedAt")
	}
	if s1 == SpecTraceID("bigtable@B", at) {
		t.Fatalf("SpecTraceID ignores key")
	}
}

// TestIDsAreFNV1a pins the ids to what hash/fnv and %016x give — the
// form they were first written in, which fingerprints and recorded
// traces depend on — and to one allocation each.
func TestIDsAreFNV1a(t *testing.T) {
	ref := func(name string, n uint64) string {
		h := fnv.New64a()
		h.Write([]byte(name))
		h.Write([]byte{0})
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], n)
		h.Write(b[:])
		return fmt.Sprintf("%016x", h.Sum64())
	}
	at := time.Date(2011, 11, 1, 3, 0, 0, 123456789, time.UTC)
	for _, name := range []string{"", "m003", "websearch-leaf@platform-B", "näme\x00with zero"} {
		for _, n := range []uint64{0, 1, 17, 1 << 40, ^uint64(0)} {
			if got, want := SampleTraceID(name, n), ref(name, n); got != want {
				t.Errorf("SampleTraceID(%q, %d) = %s, want %s", name, n, got, want)
			}
		}
		if got, want := SpecTraceID(name, at), ref(name, uint64(at.UnixNano())); got != want {
			t.Errorf("SpecTraceID(%q) = %s, want %s", name, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = SpecTraceID("websearch-leaf@platform-B", at) }); n > 1 {
		t.Errorf("SpecTraceID allocates %v times, want at most 1", n)
	}
}

func TestStoreRingAndLookup(t *testing.T) {
	s := NewStore(4)
	for i := 0; i < 6; i++ {
		s.Add(Span{TraceID: fmt.Sprintf("t%d", i), Stage: StageSample})
	}
	if got := s.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
	all := s.Recent(0)
	if len(all) != 4 {
		t.Fatalf("Recent(0) kept %d spans, want 4 (ring capacity)", len(all))
	}
	// Oldest two evicted; survivors in order t2..t5.
	for i, sp := range all {
		if want := fmt.Sprintf("t%d", i+2); sp.TraceID != want {
			t.Fatalf("span %d = %q, want %q", i, sp.TraceID, want)
		}
	}
	if got := s.Recent(2); len(got) != 2 || got[1].TraceID != "t5" {
		t.Fatalf("Recent(2) = %+v", got)
	}
	if got := s.ByTrace("t0"); got != nil {
		t.Fatalf("evicted trace still found: %+v", got)
	}
	s.Add(Span{TraceID: "t5", Stage: StageDecision})
	byT := s.ByTrace("t5")
	if len(byT) != 2 || byT[0].Stage != StageSample || byT[1].Stage != StageDecision {
		t.Fatalf("ByTrace(t5) = %+v", byT)
	}
	if got := s.StageCount(StageSample); got != 6 {
		t.Fatalf("StageCount(sample) = %d, want 6", got)
	}
}

func TestNilStoreSafe(t *testing.T) {
	var s *Store
	s.Add(Span{TraceID: "x"})
	if s.Total() != 0 || s.Recent(5) != nil || s.ByTrace("x") != nil || s.StageCount(StageSample) != 0 {
		t.Fatalf("nil store misbehaved")
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Add(Span{TraceID: SampleTraceID("m", uint64(g*1000+i)), Stage: StageIngest})
				s.Recent(10)
				s.Total()
			}
		}(g)
	}
	wg.Wait()
	if s.Total() != 1600 {
		t.Fatalf("Total = %d, want 1600", s.Total())
	}
}
