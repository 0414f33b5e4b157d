package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/testenv"
)

// TestPingPongAllocsPerMessage pins the steady-state message path to at
// most one heap allocation per message on every backend: a 2-rank 64 B
// ping-pong measured with testing.AllocsPerRun from inside rank 0, after
// warm-up round trips have filled the free lists and buffer pools. The
// allocation count covers every goroutine, so it includes the peer rank,
// both transports, the network and the kernel.
func TestPingPongAllocsPerMessage(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	const warm, runs = 200, 1000
	for _, tr := range []Transport{TCP, SCTP, SCTPOneToOne} {
		t.Run(tr.String(), func(t *testing.T) {
			var perMsg float64
			_, err := Run(Options{Procs: 2, Transport: tr, Seed: 1}, func(pr *mpi.Process, comm *mpi.Comm) error {
				msg, buf := bytes.Repeat([]byte{7}, 64), make([]byte, 64)
				peer := 1 - comm.Rank()
				if comm.Rank() == 1 {
					// warm-up, AllocsPerRun's own warm-up call, the runs.
					for i := 0; i < warm+1+runs; i++ {
						if _, err := comm.Recv(peer, 0, buf); err != nil {
							return err
						}
						if err := comm.Send(peer, 0, msg); err != nil {
							return err
						}
					}
					return nil
				}
				var failed error
				roundTrip := func() {
					if err := comm.Send(peer, 0, msg); err != nil && failed == nil {
						failed = err
					}
					if _, err := comm.Recv(peer, 0, buf); err != nil && failed == nil {
						failed = err
					}
				}
				for i := 0; i < warm; i++ {
					roundTrip()
				}
				perMsg = testing.AllocsPerRun(runs, roundTrip) / 2
				if failed == nil && !bytes.Equal(buf, msg) {
					failed = fmt.Errorf("echo mismatch")
				}
				return failed
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %.3f allocs/msg", tr, perMsg)
			if perMsg > 1 {
				t.Errorf("%s: %.3f allocations per message in steady state, want <= 1", tr, perMsg)
			}
		})
	}
}
