package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpi/rpi"
)

var allTransports = []Transport{TCP, SCTP, SCTPSingleStream, SCTPOneToOne}

func TestPingPongBothTransports(t *testing.T) {
	for _, tr := range allTransports {
		tr := tr
		t.Run(tr.String(), func(t *testing.T) {
			_, err := Run(Options{Procs: 2, Transport: tr, Seed: 1},
				func(pr *mpi.Process, comm *mpi.Comm) error {
					msg := []byte("hello world")
					buf := make([]byte, 64)
					if comm.Rank() == 0 {
						if err := comm.Send(1, 42, msg); err != nil {
							return err
						}
						st, err := comm.Recv(1, 43, buf)
						if err != nil {
							return err
						}
						if st.Count != len(msg) || !bytes.Equal(buf[:st.Count], msg) {
							return fmt.Errorf("echo mismatch: %q", buf[:st.Count])
						}
						return nil
					}
					st, err := comm.Recv(0, 42, buf)
					if err != nil {
						return err
					}
					return comm.Send(0, 43, buf[:st.Count])
				})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLongMessageRendezvous(t *testing.T) {
	for _, tr := range allTransports {
		tr := tr
		t.Run(tr.String(), func(t *testing.T) {
			const n = 300 << 10 // long message, past the 64 KiB eager limit
			_, err := Run(Options{Procs: 2, Transport: tr, Seed: 2},
				func(pr *mpi.Process, comm *mpi.Comm) error {
					if comm.Rank() == 0 {
						data := make([]byte, n)
						for i := range data {
							data[i] = byte(i * 7)
						}
						return comm.Send(1, 0, data)
					}
					buf := make([]byte, n)
					st, err := comm.Recv(0, 0, buf)
					if err != nil {
						return err
					}
					if st.Count != n {
						return fmt.Errorf("count = %d", st.Count)
					}
					for i := range buf {
						if buf[i] != byte(i*7) {
							return fmt.Errorf("corrupt at %d", i)
						}
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUnexpectedMessagesBuffered(t *testing.T) {
	for _, tr := range []Transport{TCP, SCTP} {
		tr := tr
		t.Run(tr.String(), func(t *testing.T) {
			_, err := Run(Options{Procs: 2, Transport: tr, Seed: 3},
				func(pr *mpi.Process, comm *mpi.Comm) error {
					if comm.Rank() == 0 {
						// Send before the receiver posts anything.
						for i := 0; i < 5; i++ {
							if err := comm.Send(1, i, []byte{byte(i)}); err != nil {
								return err
							}
						}
						return nil
					}
					// Receive in reverse tag order: every message is
					// unexpected when it arrives.
					buf := make([]byte, 1)
					for i := 4; i >= 0; i-- {
						st, err := comm.Recv(0, i, buf)
						if err != nil {
							return err
						}
						if st.Tag != i || buf[0] != byte(i) {
							return fmt.Errorf("tag %d: got tag %d val %d", i, st.Tag, buf[0])
						}
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWildcards(t *testing.T) {
	_, err := Run(Options{Procs: 4, Transport: SCTP, Seed: 4},
		func(pr *mpi.Process, comm *mpi.Comm) error {
			if comm.Rank() == 0 {
				got := map[int]bool{}
				buf := make([]byte, 8)
				for i := 0; i < 3; i++ {
					st, err := comm.Recv(mpi.AnySource, mpi.AnyTag, buf)
					if err != nil {
						return err
					}
					got[st.Source] = true
					if st.Tag != st.Source*10 {
						return fmt.Errorf("tag %d from %d", st.Tag, st.Source)
					}
				}
				if len(got) != 3 {
					return fmt.Errorf("sources: %v", got)
				}
				return nil
			}
			return comm.Send(0, comm.Rank()*10, []byte("x"))
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSsendSynchronous(t *testing.T) {
	// A synchronous send must not complete before the receive is
	// posted: check via virtual time.
	_, err := Run(Options{Procs: 2, Transport: SCTP, Seed: 5, Cost: &rpi.CostModel{}},
		func(pr *mpi.Process, comm *mpi.Comm) error {
			if comm.Rank() == 0 {
				t0 := pr.P.Now()
				if err := comm.Ssend(1, 0, []byte("sync")); err != nil {
					return err
				}
				if pr.P.Now()-t0 < 400*time.Millisecond {
					return fmt.Errorf("Ssend completed in %v, receiver was asleep for 500ms", pr.P.Now()-t0)
				}
				return nil
			}
			pr.P.Sleep(500 * time.Millisecond)
			buf := make([]byte, 16)
			_, err := comm.Recv(0, 0, buf)
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonblockingOverlap(t *testing.T) {
	// The Figure 4 pattern: two Irecvs with different tags, Waitany,
	// compute, Waitall.
	for _, tr := range []Transport{TCP, SCTP} {
		tr := tr
		t.Run(tr.String(), func(t *testing.T) {
			_, err := Run(Options{Procs: 2, Transport: tr, Seed: 6},
				func(pr *mpi.Process, comm *mpi.Comm) error {
					if comm.Rank() == 0 {
						bufA := make([]byte, 30<<10)
						bufB := make([]byte, 30<<10)
						ra, err := comm.Irecv(1, 1, bufA)
						if err != nil {
							return err
						}
						rb, err := comm.Irecv(1, 2, bufB)
						if err != nil {
							return err
						}
						if _, _, err := comm.WaitAny(ra, rb); err != nil {
							return err
						}
						pr.P.Sleep(time.Millisecond) // compute
						return comm.WaitAll(ra, rb)
					}
					if err := comm.Send(0, 1, make([]byte, 30<<10)); err != nil {
						return err
					}
					return comm.Send(0, 2, make([]byte, 30<<10))
				})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCollectives(t *testing.T) {
	for _, tr := range []Transport{TCP, SCTP} {
		tr := tr
		t.Run(tr.String(), func(t *testing.T) {
			_, err := Run(Options{Procs: 8, Transport: tr, Seed: 7},
				func(pr *mpi.Process, comm *mpi.Comm) error {
					n := comm.Size()
					me := comm.Rank()

					// Barrier.
					if err := comm.Barrier(); err != nil {
						return err
					}

					// Bcast.
					data := make([]byte, 1000)
					if me == 2 {
						for i := range data {
							data[i] = byte(i)
						}
					}
					if err := comm.Bcast(2, data); err != nil {
						return err
					}
					for i := range data {
						if data[i] != byte(i) {
							return fmt.Errorf("bcast corrupt at %d", i)
						}
					}

					// Reduce (sum of ranks) to root 1.
					v := mpi.F64Bytes([]float64{float64(me), 1})
					if err := comm.Reduce(1, v, mpi.OpSumF64); err != nil {
						return err
					}
					if me == 1 {
						got := mpi.BytesF64(v)
						wantSum := float64(n*(n-1)) / 2
						if got[0] != wantSum || got[1] != float64(n) {
							return fmt.Errorf("reduce got %v", got)
						}
					}

					// Allreduce max.
					w := mpi.F64Bytes([]float64{float64(me)})
					if err := comm.Allreduce(w, mpi.OpMaxF64); err != nil {
						return err
					}
					if got := mpi.BytesF64(w)[0]; got != float64(n-1) {
						return fmt.Errorf("allreduce max = %v", got)
					}

					// Gather/Scatter round trip.
					part := []byte{byte(me), byte(me + 1)}
					var all []byte
					if me == 0 {
						all = make([]byte, 2*n)
					}
					if err := comm.Gather(0, part, all); err != nil {
						return err
					}
					back := make([]byte, 2)
					if err := comm.Scatter(0, all, back); err != nil {
						return err
					}
					if back[0] != byte(me) || back[1] != byte(me+1) {
						return fmt.Errorf("gather/scatter corrupt: %v", back)
					}

					// Allgather.
					ag := make([]byte, n)
					if err := comm.Allgather([]byte{byte(me * 3)}, ag); err != nil {
						return err
					}
					for r := 0; r < n; r++ {
						if ag[r] != byte(r*3) {
							return fmt.Errorf("allgather[%d] = %d", r, ag[r])
						}
					}

					// Alltoall.
					snd := make([]byte, n)
					for r := range snd {
						snd[r] = byte(me*10 + r)
					}
					rcv := make([]byte, n)
					if err := comm.Alltoall(snd, rcv); err != nil {
						return err
					}
					for r := 0; r < n; r++ {
						if rcv[r] != byte(r*10+me) {
							return fmt.Errorf("alltoall[%d] = %d want %d", r, rcv[r], r*10+me)
						}
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCommDupAndSplit(t *testing.T) {
	_, err := Run(Options{Procs: 8, Transport: SCTP, Seed: 8},
		func(pr *mpi.Process, comm *mpi.Comm) error {
			dup, err := comm.Dup()
			if err != nil {
				return err
			}
			// Messages on dup must not match receives on world.
			if dup.Context() == comm.Context() {
				return fmt.Errorf("dup context not fresh")
			}
			// Split into even/odd.
			sub, err := comm.Split(comm.Rank()%2, comm.Rank())
			if err != nil {
				return err
			}
			if sub.Size() != 4 {
				return fmt.Errorf("split size = %d", sub.Size())
			}
			// Ring send inside the subgroup.
			me := sub.Rank()
			next := (me + 1) % sub.Size()
			prev := (me - 1 + sub.Size()) % sub.Size()
			buf := make([]byte, 1)
			if _, err := sub.SendRecv(next, 9, []byte{byte(me)}, prev, 9, buf); err != nil {
				return err
			}
			if buf[0] != byte(prev) {
				return fmt.Errorf("ring got %d want %d", buf[0], prev)
			}
			return sub.Barrier()
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbe(t *testing.T) {
	_, err := Run(Options{Procs: 2, Transport: SCTP, Seed: 9},
		func(pr *mpi.Process, comm *mpi.Comm) error {
			if comm.Rank() == 0 {
				return comm.Send(1, 5, []byte("probe me"))
			}
			st, err := comm.Probe(mpi.AnySource, mpi.AnyTag)
			if err != nil {
				return err
			}
			if st.Tag != 5 || st.Count != 8 {
				return fmt.Errorf("probe status %+v", st)
			}
			buf := make([]byte, st.Count)
			if _, err := comm.Recv(st.Source, st.Tag, buf); err != nil {
				return err
			}
			if string(buf) != "probe me" {
				return fmt.Errorf("got %q", buf)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnderLossBothTransports(t *testing.T) {
	for _, tr := range []Transport{TCP, SCTP} {
		tr := tr
		t.Run(tr.String(), func(t *testing.T) {
			_, err := Run(Options{Procs: 4, Transport: tr, Seed: 10, LossRate: 0.02},
				func(pr *mpi.Process, comm *mpi.Comm) error {
					// All-pairs exchange under loss.
					buf := make([]byte, 10<<10)
					for r := 0; r < comm.Size(); r++ {
						if r == comm.Rank() {
							continue
						}
						if _, err := comm.SendRecv(r, 1, make([]byte, 10<<10), r, 1, buf); err != nil {
							return err
						}
					}
					return comm.Barrier()
				})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSendToSelfDeadlockDetected(t *testing.T) {
	// Two blocking sends with no receives: a classic MPI deadlock that
	// the kernel's detector must catch (long/rendezvous path).
	rep, _ := Run(Options{Procs: 2, Transport: TCP, Seed: 11},
		func(pr *mpi.Process, comm *mpi.Comm) error {
			other := 1 - comm.Rank()
			return comm.Send(other, 0, make([]byte, 256<<10)) // rendezvous; no recv
		})
	if rep.SimErr == nil {
		t.Fatal("expected deadlock to be detected")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() time.Duration {
		rep, err := Run(Options{Procs: 4, Transport: SCTP, Seed: 42, LossRate: 0.01},
			func(pr *mpi.Process, comm *mpi.Comm) error {
				for i := 0; i < 10; i++ {
					if err := comm.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Elapsed
	}
	if d1, d2 := run(), run(); d1 != d2 {
		t.Fatalf("nondeterministic: %v vs %v", d1, d2)
	}
}

func TestTruncationError(t *testing.T) {
	_, err := Run(Options{Procs: 2, Transport: SCTP, Seed: 12},
		func(pr *mpi.Process, comm *mpi.Comm) error {
			if comm.Rank() == 0 {
				return comm.Send(1, 0, make([]byte, 1000))
			}
			buf := make([]byte, 10) // too small
			_, err := comm.Recv(0, 0, buf)
			if err != mpi.ErrTruncated {
				return fmt.Errorf("err = %v, want ErrTruncated", err)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}
