package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netsim/topo"
)

// MulticastPoint is one row of the reliable-multicast broadcast table:
// the same 8 KiB Bcast measured under the multicast family (link-layer
// group fan-out plus NAK repair), the tree family (binomial), and the
// naive linear family, on a fat-tree sized to Ranks. Times are virtual
// nanoseconds, so rows are deterministic and machine-independent.
type MulticastPoint struct {
	Ranks        int
	McastBcastNS int64
	TreeBcastNS  int64
	NaiveBcastNS int64
}

// MulticastRanks is the rank axis of the multicast table. The
// per-hop-fan-out advantage over the binomial tree is already visible
// at 8 ranks and decisive by 256, where the tree pays log2(N) serial
// fabric traversals against multicast's single one.
var MulticastRanks = []int{8, 64, 256}

// multicastBcastCCT measures completion time of one 8 KiB Bcast under
// alg on an N-rank SCTP world over a generated fat-tree, with the same
// tree-barrier bracketing as collectiveCCT: time runs at rank 0 from
// the entry barrier's release to the exit barrier's release, so the
// NAK/repair tail of a multicast operation is fully charged.
func multicastBcastCCT(ranks int, alg mpi.Alg) (int64, error) {
	var bcast time.Duration
	_, err := core.Run(core.Options{
		Transport: core.SCTP,
		Procs:     ranks,
		Seed:      1,
		Topo:      &topo.Config{Kind: topo.FatTree},
		Deadline:  120 * time.Second,
	}, func(pr *mpi.Process, comm *mpi.Comm) error {
		comm.SetAlg(mpi.AlgTree)
		if err := comm.Barrier(); err != nil {
			return err
		}
		t0 := pr.P.Now()
		comm.SetAlg(alg)
		data := make([]byte, collectiveBytes)
		if err := comm.Bcast(0, data); err != nil {
			return err
		}
		comm.SetAlg(mpi.AlgTree)
		if err := comm.Barrier(); err != nil {
			return err
		}
		if comm.Rank() == 0 {
			bcast = pr.P.Now() - t0
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("multicast cct %d ranks: %w", ranks, err)
	}
	return bcast.Nanoseconds(), nil
}

// MulticastCCT measures one full row.
func MulticastCCT(ranks int) (MulticastPoint, error) {
	pt := MulticastPoint{Ranks: ranks}
	var err error
	if pt.McastBcastNS, err = multicastBcastCCT(ranks, mpi.AlgMulticast); err != nil {
		return pt, err
	}
	if pt.TreeBcastNS, err = multicastBcastCCT(ranks, mpi.AlgTree); err != nil {
		return pt, err
	}
	if pt.NaiveBcastNS, err = multicastBcastCCT(ranks, mpi.AlgNaive); err != nil {
		return pt, err
	}
	return pt, nil
}

// MulticastTable runs MulticastCCT at each world size in ranks.
func MulticastTable(ranks []int) (*Table, error) {
	return exactTable(&Table{
		Title:   "Multicast: 8 KiB Bcast over SCTP on a fat-tree, link-layer multicast + NAK repair vs tree vs naive (virtual ns)",
		Columns: []string{"multicast", "tree", "naive"},
		Notes:   []string{"completion time from the entry barrier's release to the exit barrier's release at rank 0"},
	}, len(ranks), func(i int) (MulticastPoint, error) { return MulticastCCT(ranks[i]) },
		func(p MulticastPoint) Row {
			return Row{Label: fmt.Sprintf("%d ranks", p.Ranks),
				Values: []float64{float64(p.McastBcastNS), float64(p.TreeBcastNS), float64(p.NaiveBcastNS)}}
		})
}
