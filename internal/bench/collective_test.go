package bench

import (
	"testing"

	"repro/internal/core"
)

// TestCollectiveTreeScalesLog is the collective-scaling claim in
// miniature (the full 8..256 table is `cmd/paper -exp collectives`): at
// 32 ranks the naive linear allreduce must already cost well over twice
// the tree allreduce, and the gap must grow with rank count. Both rows
// are also pinned to their golden virtual-time values.
func TestCollectiveTreeScalesLog(t *testing.T) {
	small, err := CollectiveCCT(8)
	if err != nil {
		t.Fatal(err)
	}
	big, err := CollectiveCCT(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ got, want CollectivePoint }{
		{small, CollectivePoint{Ranks: 8, TreeBcastNS: 692352, NaiveBcastNS: 679856,
			TreeAllreduceNS: 756920, NaiveAllreduceNS: 1215176}},
		{big, CollectivePoint{Ranks: 32, TreeBcastNS: 1421044, NaiveBcastNS: 2335020,
			TreeAllreduceNS: 1585116, NaiveAllreduceNS: 4470036}},
	} {
		if c.got != c.want {
			t.Errorf("collectives %d ranks = %+v, golden %+v", c.want.Ranks, c.got, c.want)
		}
	}
	if big.NaiveAllreduceNS < 2*big.TreeAllreduceNS {
		t.Errorf("32-rank naive allreduce (%d ns) not >= 2x tree (%d ns)",
			big.NaiveAllreduceNS, big.TreeAllreduceNS)
	}
	gapSmall := float64(small.NaiveAllreduceNS) / float64(small.TreeAllreduceNS)
	gapBig := float64(big.NaiveAllreduceNS) / float64(big.TreeAllreduceNS)
	if gapBig <= gapSmall {
		t.Errorf("naive/tree allreduce gap shrank with scale: 8 ranks %.2fx, 32 ranks %.2fx",
			gapSmall, gapBig)
	}
	// Broadcast: binomial must beat the root loop at 32 ranks.
	if big.NaiveBcastNS <= big.TreeBcastNS {
		t.Errorf("32-rank naive bcast (%d ns) not slower than tree (%d ns)",
			big.NaiveBcastNS, big.TreeBcastNS)
	}
}

// TestIncastRecovers runs a small 15-to-1 fan-in per backend: the
// drop-tail bottleneck must actually shed packets, and the transport
// must still deliver every byte intact (verified inside Incast).
// Completion time and drop count are pinned to their golden values.
func TestIncastRecovers(t *testing.T) {
	for _, c := range []struct {
		tr                  core.Transport
		completionNS, drops int64
	}{
		{core.TCP, 1100481656, 46},
		{core.SCTP, 1201473744, 59},
		{core.SCTPOneToOne, 1201369544, 36},
	} {
		pt, err := Incast(c.tr, 16)
		if err != nil {
			t.Fatal(err)
		}
		if pt.CompletionNS != c.completionNS || pt.QueueDrops != c.drops {
			t.Errorf("%s: completion %d ns, %d drops; golden %d ns, %d drops",
				pt.Transport, pt.CompletionNS, pt.QueueDrops, c.completionNS, c.drops)
		}
		if pt.QueueDrops == 0 {
			t.Errorf("%s: incast produced no queue drops; bottleneck not exercised", pt.Transport)
		}
		if pt.CompletionNS <= 0 {
			t.Errorf("%s: no completion time recorded", pt.Transport)
		}
	}
}
