// Head-of-line blocking demonstration — the paper's Figure 4 scenario,
// run as a real program on both transports.
//
// P1 sends Msg-A (tag A) then Msg-B (tag B). The network loses the
// first transmission of Msg-A. P0 posted nonblocking receives for both
// tags and waits for *any* of them, then computes.
//
// Over TCP both messages share one ordered byte stream, so Msg-B sits
// in the kernel until Msg-A is retransmitted: Waitany completes only
// after the retransmission timeout. Over SCTP the two tags map to
// different streams, so Msg-B is delivered immediately and P0 starts
// computing while Msg-A recovers.
//
//	go run ./examples/holblocking
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/rpi"
)

const (
	tagA = 1
	tagB = 2
	size = 8 << 10
)

func main() {
	for _, tr := range []core.Transport{core.TCP, core.SCTP} {
		waited, err := run(tr)
		if err != nil {
			log.Fatalf("%v: %v", tr, err)
		}
		fmt.Printf("%-18s MPI_Waitany returned after %12v\n", tr, waited)
	}
	fmt.Println()
	fmt.Println("SCTP delivers Msg-B on its own stream while Msg-A recovers;")
	fmt.Println("TCP holds Msg-B behind the loss until Msg-A is retransmitted.")
}

func run(tr core.Transport) (time.Duration, error) {
	cluster, err := core.NewCluster(core.Options{
		Procs:     2,
		Transport: tr,
		Seed:      7,
		Cost:      &rpi.CostModel{}, // protocol dynamics only
	})
	if err != nil {
		return 0, err
	}
	var waited time.Duration
	cluster.Start(func(pr *mpi.Process, comm *mpi.Comm) error {
		if comm.Rank() == 0 {
			bufA := make([]byte, size)
			bufB := make([]byte, size)
			ra, err := comm.Irecv(1, tagA, bufA)
			if err != nil {
				return err
			}
			rb, err := comm.Irecv(1, tagB, bufB)
			if err != nil {
				return err
			}
			if err := comm.Barrier(); err != nil {
				return err
			}
			t0 := pr.P.Now()
			i, _, err := comm.WaitAny(ra, rb)
			if err != nil {
				return err
			}
			waited = pr.P.Now() - t0
			if waited < 50*time.Millisecond && i != 1 {
				return fmt.Errorf("fast completion should be Msg-B, got request %d", i)
			}
			// Compute() would overlap here; then MPI_Waitall.
			return comm.WaitAll(ra, rb)
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		// Lose every packet while Msg-A's first transmission is in
		// flight, then restore the network before sending Msg-B.
		cluster.Net.SetLoss(1.0)
		if err := comm.Send(0, tagA, make([]byte, size)); err != nil {
			return err
		}
		pr.P.Sleep(time.Millisecond) // let the doomed packets drain
		cluster.Net.SetLoss(0)
		return comm.Send(0, tagB, make([]byte, size))
	})
	_, err = cluster.Wait()
	return waited, err
}
