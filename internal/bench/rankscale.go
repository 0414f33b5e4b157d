package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/rpi"
)

// RankScalingPoint is one cell of the rank-scaling axis: an N-rank
// mesh in which exactly two ranks exchange traffic, measured under the
// proactor cost model (per-event charge, no descriptor scan) and under
// the select ablation (per-descriptor scan, the paper's §3.3 LAM
// behaviour). ProactorNS should stay flat as Ranks grows — progress
// cost follows *active* peers — while SelectNS grows with the mesh.
type RankScalingPoint struct {
	Ranks       int
	ProactorNS  int64
	SelectNS    int64
	PollPasses  int64 // rank 0, proactor run
	PollEvents  int64 // rank 0, proactor run
	PollScanFDs int64 // rank 0, select run
}

// rankScalingIters trades resolution against the wall-clock cost of
// bringing up an N^2 TCP mesh; the measured phase is pure virtual time
// and deterministic, so one run per cell suffices.
const rankScalingIters = 100

// RankScaling measures progress cost at fixed active-peer count (2)
// while the mesh grows: ranks 0 and 1 ping-pong 4 KiB messages, every
// other rank joins the mesh and idles. Both cost models charge the
// same 1 µs pass base; they differ only in how the pass scales — 200 ns
// per polled descriptor (select) versus 500 ns per dequeued readiness
// event (proactor).
func RankScaling(ranks int) (RankScalingPoint, error) {
	pt := RankScalingPoint{Ranks: ranks}

	run := func(cost rpi.CostModel) (int64, *core.Report, error) {
		var elapsed time.Duration
		rep, err := core.Run(core.Options{
			Transport: core.TCP,
			Procs:     ranks,
			Seed:      1,
			Cost:      &cost,
			Deadline:  30 * time.Second,
		}, func(pr *mpi.Process, comm *mpi.Comm) error {
			if comm.Rank() > 1 {
				// Idle rank: in the mesh but silent. Hold off Finalize
				// (whose MPI barrier talks to everyone) until well after
				// the measured phase.
				pr.P.Sleep(500 * time.Millisecond)
				return nil
			}
			msg := make([]byte, 4096)
			buf := make([]byte, 4096)
			peer := 1 - comm.Rank()
			t0 := pr.P.Now()
			for i := 0; i < rankScalingIters; i++ {
				if err := pingOnce(comm, peer, msg, buf); err != nil {
					return err
				}
			}
			if comm.Rank() == 0 {
				elapsed = pr.P.Now() - t0
			}
			return nil
		})
		if err != nil {
			return 0, nil, err
		}
		if elapsed == 0 {
			return 0, nil, fmt.Errorf("bench: rank scaling produced no measurement")
		}
		return elapsed.Nanoseconds(), rep, nil
	}

	proactor, prep, err := run(rpi.CostModel{
		PollBase:     time.Microsecond,
		PollPerEvent: 500 * time.Nanosecond,
	})
	if err != nil {
		return pt, fmt.Errorf("rank scaling %d ranks (proactor): %w", ranks, err)
	}
	selectNS, srep, err := run(rpi.CostModel{
		PollBase:  time.Microsecond,
		PollPerFD: 200 * time.Nanosecond,
	})
	if err != nil {
		return pt, fmt.Errorf("rank scaling %d ranks (select): %w", ranks, err)
	}

	pt.ProactorNS = proactor
	pt.SelectNS = selectNS
	pt.PollPasses = prep.RPIStats[0]["poll_passes"]
	pt.PollEvents = prep.RPIStats[0]["poll_events"]
	pt.PollScanFDs = srep.RPIStats[0]["poll_scan_fds"]
	return pt, nil
}

// RankScalingRanks is the mesh-size axis of the rank-scaling table.
// The 256- and 1024-rank cells pin the claim at scale: proactor
// progress cost stays flat at 2 active peers while the select ablation
// pays for every descriptor. The 1024-rank mesh costs about two minutes
// of wall clock to bring up, so `cmd/paper -quick` drops the cells
// above 128 ranks; TestRankScalingSubLinear pins 8 and 32 every run.
var RankScalingRanks = []int{8, 32, 128, 256, 1024}

// RankScalingTable runs RankScaling at each mesh size in ranks.
func RankScalingTable(ranks []int) (*Table, error) {
	return exactTable(&Table{
		Title: fmt.Sprintf("Rank scaling: 4 KiB ping-pong x %d between 2 active peers in an N-rank TCP mesh (virtual ns)",
			rankScalingIters),
		Columns: []string{"proactor ns", "select ns", "poll passes", "poll events", "poll scan fds"},
		Notes: []string{
			"proactor: 1us/pass + 500ns/event; select ablation (paper §3.3 LAM): 1us/pass + 200ns/descriptor",
			"passes and events: rank 0 of the proactor run; scan fds: rank 0 of the select run",
		},
	}, len(ranks), func(i int) (RankScalingPoint, error) { return RankScaling(ranks[i]) },
		func(p RankScalingPoint) Row {
			return Row{Label: fmt.Sprintf("%d ranks", p.Ranks), Values: []float64{float64(p.ProactorNS),
				float64(p.SelectNS), float64(p.PollPasses), float64(p.PollEvents), float64(p.PollScanFDs)}}
		})
}
