package bench

import (
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netsim/topo"
)

// TestScaleSmoke1024 is the `scripts/check.sh` scale gate: bring up a
// 1024-rank world on a generated k=16 fat-tree and complete one tree
// Allreduce end to end. It exercises the event schedule and arena,
// multi-hop routing, and the O(log N) collectives at the target scale
// in one shot. Gated behind SCALE_SMOKE=1 because full-mesh transport
// bring-up at 1024 ranks costs about a minute of wall clock.
func TestScaleSmoke1024(t *testing.T) {
	if os.Getenv("SCALE_SMOKE") == "" {
		t.Skip("set SCALE_SMOKE=1 to run the 1024-rank smoke")
	}
	const ranks = 1024
	t0 := time.Now()
	sums := make([]int64, ranks)
	rep, err := core.Run(core.Options{
		Transport: core.TCP,
		Procs:     ranks,
		Seed:      1,
		Topo:      &topo.Config{Kind: topo.FatTree},
		Deadline:  300 * time.Second,
	}, func(pr *mpi.Process, comm *mpi.Comm) error {
		data := mpi.I64Bytes([]int64{int64(comm.Rank())})
		if err := comm.Allreduce(data, mpi.OpSumI64); err != nil {
			return err
		}
		sums[comm.Rank()] = mpi.BytesI64(data)[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	want := int64(ranks) * (ranks - 1) / 2
	for r, s := range sums {
		if s != want {
			t.Fatalf("rank %d allreduce sum = %d, want %d", r, s, want)
		}
	}
	t.Logf("1024-rank fat-tree allreduce: %v wall, %v virtual", time.Since(t0), rep.Elapsed)
}
