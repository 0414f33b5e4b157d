package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/netsim/topo"
)

// IncastPoint records an N-to-1 fan-in (every rank eagerly gathers to
// rank 0) on a fat-tree whose edge-to-host ports carry a tight drop-
// tail queue: the receiver's last-hop port is the bottleneck, sheds
// packets, and the transport's loss recovery determines how fast the
// gather completes. One point per RPI backend.
type IncastPoint struct {
	Transport    string
	CompletionNS int64
	QueueDrops   int64
	PacketsSent  int64
}

// incastBytes is per-sender payload, kept under the eager limit so all
// senders blast concurrently — the worst case for the shared port.
const incastBytes = 16 << 10

// Incast runs an (ranks-1)-to-1 gather over tr on a fat-tree with a
// 32 KiB drop-tail queue at every host port, and reports completion
// time plus contention counters.
func Incast(tr core.Transport, ranks int) (IncastPoint, error) {
	pt := IncastPoint{Transport: tr.String()}
	hostLP := netsim.DefaultLinkParams()
	hostLP.Delay = 5 * time.Microsecond
	hostLP.QueueBytes = 32 << 10
	var cct time.Duration
	rep, err := core.Run(core.Options{
		Transport: tr,
		Procs:     ranks,
		Seed:      1,
		Topo:      &topo.Config{Kind: topo.FatTree, HostLink: &hostLP},
		Deadline:  120 * time.Second,
	}, func(pr *mpi.Process, comm *mpi.Comm) error {
		if err := comm.Barrier(); err != nil {
			return err
		}
		t0 := pr.P.Now()
		send := make([]byte, incastBytes)
		for i := range send {
			send[i] = byte(comm.Rank())
		}
		var recv []byte
		if comm.Rank() == 0 {
			recv = make([]byte, ranks*incastBytes)
		}
		if err := comm.Gather(0, send, recv); err != nil {
			return err
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		if comm.Rank() == 0 {
			cct = pr.P.Now() - t0
			for r := 0; r < ranks; r++ {
				for i := 0; i < incastBytes; i++ {
					if recv[r*incastBytes+i] != byte(r) {
						return fmt.Errorf("incast: rank %d byte %d corrupted", r, i)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return pt, fmt.Errorf("incast %s: %w", pt.Transport, err)
	}
	pt.CompletionNS = cct.Nanoseconds()
	pt.QueueDrops = rep.NetStats.PacketsQueued
	pt.PacketsSent = rep.NetStats.PacketsSent
	return pt, nil
}

// IncastRanks is the world size of the incast benchmark (63-to-1).
const IncastRanks = 64

// IncastTable runs the IncastRanks-rank scenario once per RPI backend.
func IncastTable() (*Table, error) {
	trs := []core.Transport{core.TCP, core.SCTP, core.SCTPOneToOne}
	return exactTable(&Table{
		Title: fmt.Sprintf("Incast: %d-to-1 eager Gather of %d KiB/rank on a fat-tree with 32 KiB drop-tail host queues",
			IncastRanks-1, incastBytes>>10),
		Columns: []string{"completion ns", "queue drops", "packets sent"},
	}, len(trs), func(i int) (IncastPoint, error) { return Incast(trs[i], IncastRanks) },
		func(p IncastPoint) Row {
			return Row{Label: p.Transport,
				Values: []float64{float64(p.CompletionNS), float64(p.QueueDrops), float64(p.PacketsSent)}}
		})
}
