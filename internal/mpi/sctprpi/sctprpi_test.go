package sctprpi

import (
	"testing"
	"testing/quick"
)

// moduleWithStreams builds a module over a pool of n streams; single is
// the Figure 12 ablation, a pool of one.
func moduleWithStreams(n int, single bool) *Module {
	if single {
		n = 1
	}
	return &Module{streams: n}
}

func TestStreamForDeterministic(t *testing.T) {
	m := moduleWithStreams(10, false)
	for ctx := int32(0); ctx < 5; ctx++ {
		for tag := int32(-3); tag < 20; tag++ {
			a := m.StreamFor(ctx, tag)
			b := m.StreamFor(ctx, tag)
			if a != b {
				t.Fatalf("StreamFor(%d,%d) not deterministic: %d vs %d", ctx, tag, a, b)
			}
			if int(a) >= 10 {
				t.Fatalf("stream %d out of pool", a)
			}
		}
	}
}

func TestStreamForSpreadsTags(t *testing.T) {
	// The paper's farm uses 10 task tags over a pool of 10 streams; the
	// mapping must spread them across several streams or multistreaming
	// buys nothing.
	m := moduleWithStreams(10, false)
	used := map[uint16]bool{}
	for tag := int32(0); tag < 10; tag++ {
		used[m.StreamFor(0, tag)] = true
	}
	if len(used) < 5 {
		t.Fatalf("10 tags mapped to only %d streams", len(used))
	}
}

func TestStreamForSingleStreamMode(t *testing.T) {
	m := moduleWithStreams(10, true)
	for tag := int32(0); tag < 100; tag++ {
		if m.StreamFor(1, tag) != 0 {
			t.Fatal("single-stream mode must pin everything to stream 0")
		}
	}
	one := moduleWithStreams(1, false)
	if one.StreamFor(3, 17) != 0 {
		t.Fatal("pool of one must use stream 0")
	}
}

func TestQuickStreamForInPool(t *testing.T) {
	f := func(ctx, tag int32, pool uint8) bool {
		n := int(pool%63) + 2
		m := moduleWithStreams(n, false)
		return int(m.StreamFor(ctx, tag)) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: same TRC always maps to the same stream (ordering relies on
// this).
func TestQuickStreamForStable(t *testing.T) {
	f := func(ctx, tag int32) bool {
		m := moduleWithStreams(10, false)
		return m.StreamFor(ctx, tag) == m.StreamFor(ctx, tag)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
