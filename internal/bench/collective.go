package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netsim/topo"
)

// CollectivePoint is one row of the collective completion-time table:
// the same broadcast and allreduce measured under the tree family
// (binomial / recursive-doubling / ring, O(log N) rounds) and under the
// naive linear family (root loops over ranks, O(N)). Times are virtual
// nanoseconds on a generated fat-tree, so rows are deterministic and
// machine-independent.
type CollectivePoint struct {
	Ranks            int
	TreeBcastNS      int64
	NaiveBcastNS     int64
	TreeAllreduceNS  int64
	NaiveAllreduceNS int64
}

// collectiveBytes keeps the allreduce on the recursive-doubling path
// (below the ring threshold), the regime where round count dominates
// completion time.
const collectiveBytes = 8 << 10

// CollectiveRanks is the rank axis of the collective table. The
// O(N)-vs-O(log N) separation is unambiguous by 256; the 1024-rank
// regime is covered by the rank-scaling axis and the scale smoke test,
// where world bring-up does not dwarf the measured phase.
var CollectiveRanks = []int{8, 32, 128, 256}

// collectiveCCT measures completion time of one 8 KiB Bcast and one
// 8 KiB Allreduce under alg on an N-rank SCTP world over a generated
// fat-tree. Each measured collective is bracketed by tree barriers
// (identical cost in both columns), and time is taken at rank 0 from
// the entry barrier's release to the exit barrier's release — i.e. true
// completion across all ranks, not rank 0's local return.
func collectiveCCT(ranks int, alg mpi.Alg) (bcastNS, allreduceNS int64, err error) {
	var bcast, allreduce time.Duration
	_, err = core.Run(core.Options{
		Transport: core.SCTP,
		Procs:     ranks,
		Seed:      1,
		Topo:      &topo.Config{Kind: topo.FatTree},
		Deadline:  120 * time.Second,
	}, func(pr *mpi.Process, comm *mpi.Comm) error {
		measure := func(out *time.Duration, op func() error) error {
			comm.SetAlg(mpi.AlgTree) // brackets always use the log-time barrier
			if err := comm.Barrier(); err != nil {
				return err
			}
			t0 := pr.P.Now()
			comm.SetAlg(alg)
			if err := op(); err != nil {
				return err
			}
			comm.SetAlg(mpi.AlgTree)
			if err := comm.Barrier(); err != nil {
				return err
			}
			if comm.Rank() == 0 {
				*out = pr.P.Now() - t0
			}
			return nil
		}
		data := make([]byte, collectiveBytes)
		if err := measure(&bcast, func() error { return comm.Bcast(0, data) }); err != nil {
			return err
		}
		vec := make([]byte, collectiveBytes)
		return measure(&allreduce, func() error { return comm.Allreduce(vec, mpi.OpSumI64) })
	})
	if err != nil {
		return 0, 0, fmt.Errorf("collective cct %d ranks: %w", ranks, err)
	}
	return bcast.Nanoseconds(), allreduce.Nanoseconds(), nil
}

// CollectiveCCT measures one full row.
func CollectiveCCT(ranks int) (CollectivePoint, error) {
	pt := CollectivePoint{Ranks: ranks}
	var err error
	if pt.TreeBcastNS, pt.TreeAllreduceNS, err = collectiveCCT(ranks, mpi.AlgTree); err != nil {
		return pt, err
	}
	if pt.NaiveBcastNS, pt.NaiveAllreduceNS, err = collectiveCCT(ranks, mpi.AlgNaive); err != nil {
		return pt, err
	}
	return pt, nil
}

// CollectiveTable runs CollectiveCCT at each world size in ranks.
func CollectiveTable(ranks []int) (*Table, error) {
	return exactTable(&Table{
		Title:   "Collectives: 8 KiB Bcast and Allreduce over SCTP on a fat-tree, tree vs naive linear (virtual ns)",
		Columns: []string{"tree bcast", "naive bcast", "tree allreduce", "naive allreduce"},
		Notes:   []string{"completion time from the entry barrier's release to the exit barrier's release at rank 0"},
	}, len(ranks), func(i int) (CollectivePoint, error) { return CollectiveCCT(ranks[i]) },
		func(p CollectivePoint) Row {
			return Row{Label: fmt.Sprintf("%d ranks", p.Ranks), Values: []float64{float64(p.TreeBcastNS),
				float64(p.NaiveBcastNS), float64(p.TreeAllreduceNS), float64(p.NaiveAllreduceNS)}}
		})
}
