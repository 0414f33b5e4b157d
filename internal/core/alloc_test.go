package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sctp"
	"repro/internal/testenv"
)

// pingPongAllocs runs a 2-rank ping-pong of size-byte messages and
// returns the heap allocations per message over runs round trips. Rank 0
// measures with testing.AllocsPerRun after warm round trips have filled
// the free lists and buffer pools; one AllocsPerRun call spans all runs,
// so the count is exact rather than rounded down per round trip. The
// count covers every goroutine, so it includes the peer rank, both
// transports, the network and the kernel.
func pingPongAllocs(t *testing.T, opts Options, size, warm, runs int) float64 {
	t.Helper()
	var perMsg float64
	_, err := Run(opts, func(pr *mpi.Process, comm *mpi.Comm) error {
		msg, buf := bytes.Repeat([]byte{7}, size), make([]byte, size)
		peer := 1 - comm.Rank()
		if comm.Rank() == 1 {
			// warm-up, then AllocsPerRun's warm-up call and measured call.
			for i := 0; i < warm+2*runs; i++ {
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
		perMsg = testing.AllocsPerRun(1, func() {
			for i := 0; i < runs; i++ {
				roundTrip()
			}
		}) / float64(2*runs)
		if failed == nil && !bytes.Equal(buf, msg) {
			failed = fmt.Errorf("echo mismatch")
		}
		return failed
	})
	if err != nil {
		t.Fatal(err)
	}
	return perMsg
}

// idataConfig runs SCTP with RFC 8260 I-DATA and the priority
// scheduler, the mode the chaos corpus runs by default.
var idataConfig = &sctp.Config{IData: true, Scheduler: sctp.SchedPriority}

// TestPingPongAllocsPerMessage pins the steady-state message path to at
// most one heap allocation per message on every backend, and on SCTP
// with I-DATA: a 64 B ping-pong without loss.
func TestPingPongAllocsPerMessage(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	pin := func(name string, opts Options) {
		t.Run(name, func(t *testing.T) {
			perMsg := pingPongAllocs(t, opts, 64, 200, 1000)
			t.Logf("%s: %.4f allocs/msg", name, perMsg)
			if perMsg > 1 {
				t.Errorf("%s: %.4f allocations per message in steady state, want <= 1", name, perMsg)
			}
		})
	}
	for _, tr := range []Transport{TCP, SCTP, SCTPOneToOne} {
		pin(tr.String(), Options{Procs: 2, Transport: tr, Seed: 1})
	}
	pin("LAM_SCTP_I-DATA", Options{Procs: 2, Transport: SCTP, Seed: 1, SCTPConfig: idataConfig})
}

// TestLossyPingPongAllocsPerMessage is the 2%-loss variant with 30 KiB
// messages, so recovery runs in the measured region: SACK blocks on
// both transports, fast retransmit and timeouts. Decoding a segment or
// chunk keeps its SACK arrays, so recovery adds little: the bound is
// about twice the measured 0.08 (tcp) and 0.11 (sctp) allocs/msg.
func TestLossyPingPongAllocsPerMessage(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	const bound = 0.2
	pin := func(name string, opts Options) {
		t.Run(name, func(t *testing.T) {
			opts.Seed, opts.LossRate = 3, 0.02
			perMsg := pingPongAllocs(t, opts, 30<<10, 100, 200)
			t.Logf("%s at 2%% loss: %.4f allocs/msg", name, perMsg)
			if perMsg > bound {
				t.Errorf("%s at 2%% loss: %.4f allocations per message, want <= %.2f", name, perMsg, bound)
			}
		})
	}
	for _, tr := range []Transport{TCP, SCTP} {
		pin(tr.String(), Options{Procs: 2, Transport: tr})
	}
	pin("LAM_SCTP_I-DATA", Options{Procs: 2, Transport: SCTP, SCTPConfig: idataConfig})
}

// TestAllreduceAllocFree pins an 8-rank 8 KiB Allreduce (recursive
// doubling) to zero steady-state allocations on every backend: the
// collective's scratch comes from the wire pool, and every message it
// exchanges takes the pooled path. Every rank runs the same number of
// Allreduces; rank 0 measures, and the count covers all of them.
func TestAllreduceAllocFree(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	const procs, words, warm, runs = 8, 1024, 50, 200
	for _, tr := range []Transport{TCP, SCTP, SCTPOneToOne} {
		t.Run(tr.String(), func(t *testing.T) {
			var perOp float64
			_, err := Run(Options{Procs: procs, Transport: tr, Seed: 1}, func(pr *mpi.Process, comm *mpi.Comm) error {
				data := make([]byte, 8*words)
				var failed error
				allreduce := func() {
					for i := 0; i < words; i++ {
						binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(float64(comm.Rank()+i)))
					}
					if err := comm.Allreduce(data, mpi.OpSumF64); err != nil && failed == nil {
						failed = err
					}
				}
				if comm.Rank() != 0 {
					for i := 0; i < warm+1+runs; i++ {
						allreduce()
					}
					return failed
				}
				for i := 0; i < warm; i++ {
					allreduce()
				}
				perOp = testing.AllocsPerRun(runs, allreduce)
				if failed != nil {
					return failed
				}
				// Sum over ranks of (rank + i) = procs*i + procs(procs-1)/2.
				got := mpi.BytesF64(data)
				for i, x := range got {
					if want := float64(procs*i + procs*(procs-1)/2); x != want {
						return fmt.Errorf("element %d = %v, want %v", i, x, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %.3f allocs per Allreduce", tr, perOp)
			if perOp != 0 {
				t.Errorf("%s: %.3f allocations per 8 KiB Allreduce in steady state, want 0", tr, perOp)
			}
		})
	}
}
