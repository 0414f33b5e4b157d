package bench

import "testing"

// TestRankScalingSubLinear is the readiness-engine scaling claim in
// miniature (the full 8..1024 axis is `cmd/paper -exp rankscale`): with
// 2 active peers, quadrupling the mesh must leave proactor progress
// cost nearly unchanged, while the select ablation visibly pays for
// every extra descriptor per pass. Both cells are also pinned to their
// golden virtual-time values.
func TestRankScalingSubLinear(t *testing.T) {
	small, err := RankScaling(8)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RankScaling(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ got, want RankScalingPoint }{
		{small, RankScalingPoint{Ranks: 8, ProactorNS: 17186400, SelectNS: 17366400,
			PollPasses: 1007, PollEvents: 612, PollScanFDs: 7056}},
		{big, RankScalingPoint{Ranks: 32, ProactorNS: 17186400, SelectNS: 18073600,
			PollPasses: 1013, PollEvents: 640, PollScanFDs: 25234}},
	} {
		if c.got != c.want {
			t.Errorf("rank scaling %d ranks = %+v, golden %+v", c.want.Ranks, c.got, c.want)
		}
	}

	// Proactor: cost follows active peers, not mesh size. Allow 10%
	// slack for incidental init-state differences.
	if float64(big.ProactorNS) > 1.10*float64(small.ProactorNS) {
		t.Errorf("proactor cost scaled with mesh: 8 ranks %d ns, 32 ranks %d ns",
			small.ProactorNS, big.ProactorNS)
	}
	// Select ablation: each pass scans every descriptor, so the same
	// workload must get measurably slower on the bigger mesh.
	if big.SelectNS <= small.SelectNS {
		t.Errorf("select ablation did not scale with mesh: 8 ranks %d ns, 32 ranks %d ns",
			small.SelectNS, big.SelectNS)
	}
	// And the instrumentation behind the claim: passes scan nfds
	// descriptors, events stay bounded by traffic.
	if small.PollEvents == 0 || small.PollPasses == 0 || small.PollScanFDs == 0 {
		t.Errorf("missing poll counters: %+v", small)
	}
	if big.PollScanFDs <= small.PollScanFDs {
		t.Errorf("poll_scan_fds did not grow with mesh: 8 ranks %d, 32 ranks %d",
			small.PollScanFDs, big.PollScanFDs)
	}
}
