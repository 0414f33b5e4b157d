package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/rpi"
	"repro/internal/netsim/topo"
)

func TestTopoEndToEnd(t *testing.T) {
	for _, tr := range []core.Transport{core.TCP, core.SCTP, core.SCTPOneToOne} {
		rep, err := core.Run(core.Options{
			Procs:     16,
			Transport: tr,
			Cost:      &rpi.CostModel{},
			Topo:      &topo.Config{Kind: topo.FatTree},
		}, func(pr *mpi.Process, comm *mpi.Comm) error {
			buf := mpi.I64Bytes([]int64{int64(comm.Rank())})
			if err := comm.Allreduce(buf, mpi.OpSumI64); err != nil {
				return err
			}
			if got := mpi.BytesI64(buf)[0]; got != 120 {
				t.Errorf("%v: allreduce sum = %d, want 120", tr, got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v (report %+v)", tr, err, rep)
		}
	}
}
