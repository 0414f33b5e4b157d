package bench

import "testing"

// TestMulticastBeatsTree gates the `cmd/paper -exp mcast` table: on a
// 256-rank fat-tree the link-layer multicast broadcast must complete
// faster than the binomial tree — one fabric traversal with per-hop
// fan-out against log2(256) = 8 serial unicast generations — and the
// row is pinned to its golden virtual-time values.
func TestMulticastBeatsTree(t *testing.T) {
	pt, err := MulticastCCT(256)
	if err != nil {
		t.Fatal(err)
	}
	golden := MulticastPoint{Ranks: 256, McastBcastNS: 1215348, TreeBcastNS: 2756808, NaiveBcastNS: 3207339672}
	if pt != golden {
		t.Errorf("multicast 256 ranks = %+v, golden %+v", pt, golden)
	}
	if pt.McastBcastNS <= 0 || pt.TreeBcastNS <= 0 {
		t.Fatalf("empty measurement: %+v", pt)
	}
	if pt.McastBcastNS >= pt.TreeBcastNS {
		t.Errorf("256-rank multicast bcast (%d ns) not faster than tree (%d ns)",
			pt.McastBcastNS, pt.TreeBcastNS)
	}
	if pt.McastBcastNS >= pt.NaiveBcastNS {
		t.Errorf("256-rank multicast bcast (%d ns) not faster than naive (%d ns)",
			pt.McastBcastNS, pt.NaiveBcastNS)
	}
}
