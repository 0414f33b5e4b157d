package core

import (
	"testing"
	"time"

	"repro/internal/mpi"
)

// TestTeardownPrompt is a regression test: MPI_Finalize plus socket
// close must complete within milliseconds of virtual time, not ride a
// T3 retransmission death spiral (a closed one-to-many socket must keep
// servicing its associations until their SHUTDOWN handshakes finish).
func TestTeardownPrompt(t *testing.T) {
	for _, tr := range []Transport{TCP, SCTP} {
		rep, err := Run(Options{Procs: 4, Transport: tr, Seed: 1},
			func(pr *mpi.Process, comm *mpi.Comm) error {
				if comm.Rank() == 0 {
					for r := 1; r < comm.Size(); r++ {
						if err := comm.Send(r, 0, []byte("x")); err != nil {
							return err
						}
					}
					return nil
				}
				buf := make([]byte, 8)
				_, err := comm.Recv(0, 0, buf)
				return err
			})
		if err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		if rep.Elapsed > 500*time.Millisecond {
			t.Errorf("%v: teardown took %v of virtual time", tr, rep.Elapsed)
		}
	}
}

// TestLossyFarmTeardownBounded runs examples/farm's manager/worker
// program over SCTP at 1% loss at the two seeds whose final SHUTDOWN
// COMPLETE is lost. The closing side has already released its socket,
// so only the out-of-the-blue reply (RFC 4960 §8.4 rule 5, a T-bit
// SHUTDOWN COMPLETE) lets the peer finish; without it the peer
// retransmits SHUTDOWN ACK up to RTO.Max and the run ends ~7 virtual
// minutes after the program. The gap between the last rank returning
// and quiescence must stay within a few RTOs.
func TestLossyFarmTeardownBounded(t *testing.T) {
	const (
		tagRequest = 100
		tagStop    = 101
		numTasks   = 64
		taskBytes  = 16 << 10
	)
	for _, seed := range []int64{5, 10} {
		var programEnd time.Duration
		rep, err := Run(Options{Procs: 4, Transport: SCTP, Seed: seed, LossRate: 0.01},
			func(pr *mpi.Process, comm *mpi.Comm) error {
				defer func() {
					if now := pr.P.Now(); now > programEnd {
						programEnd = now
					}
				}()
				if comm.Rank() == 0 {
					task := make([]byte, taskBytes)
					buf := make([]byte, 64)
					sent, done := 0, 0
					for done < numTasks {
						st, err := comm.Recv(mpi.AnySource, mpi.AnyTag, buf)
						if err != nil {
							return err
						}
						if st.Tag != tagRequest {
							done++
							continue
						}
						if sent < numTasks {
							if err := comm.Send(st.Source, sent%10, task); err != nil {
								return err
							}
							sent++
						}
					}
					for w := 1; w < comm.Size(); w++ {
						if err := comm.Send(w, tagStop, []byte{0}); err != nil {
							return err
						}
					}
					return nil
				}
				buf := make([]byte, taskBytes)
				if err := comm.Send(0, tagRequest, []byte{1}); err != nil {
					return err
				}
				for {
					st, err := comm.Recv(0, mpi.AnyTag, buf)
					if err != nil {
						return err
					}
					if st.Tag == tagStop {
						return nil
					}
					if err := comm.Send(0, 50, buf[:8]); err != nil {
						return err
					}
					if err := comm.Send(0, tagRequest, []byte{1}); err != nil {
						return err
					}
				}
			})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := rep.FirstError(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: program ends at %v, run quiesces at %v", seed, programEnd, rep.Elapsed)
		if gap := rep.Elapsed - programEnd; gap > 4*time.Second {
			t.Errorf("seed %d: run quiesced %v after the program ended at %v", seed, gap, programEnd)
		}
	}
}
