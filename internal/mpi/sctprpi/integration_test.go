package sctprpi

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/mpi/rpi"
	"repro/internal/netsim"
	"repro/internal/sctp"
	"repro/internal/sim"
)

// world builds n single-homed nodes with SCTP stacks (config cfg,
// heartbeats off) and sctprpi modules, runs fn per rank, and returns
// the modules for inspection.
func world(t *testing.T, n int, lp netsim.LinkParams, cfg sctp.Config, opts Options, fn func(pr *mpi.Process, comm *mpi.Comm) error) []*Module {
	t.Helper()
	k := sim.New(1)
	net := netsim.NewNetwork(k)
	net.SetDefaultLinkParams(lp)
	barrier := rpi.NewBarrier(k, n)
	addrs := make([][]netsim.Addr, n)
	stacks := make([]*sctp.Stack, n)
	for i := 0; i < n; i++ {
		nd := net.NewNode(fmt.Sprintf("n%d", i))
		nd.AddInterface(netsim.MakeAddr(0, i+1))
		addrs[i] = nd.Addrs()
		cfg.HBDisable = true
		stacks[i] = sctp.NewStack(nd, cfg)
	}
	modules := make([]*Module, n)
	for i := 0; i < n; i++ {
		modules[i] = New(stacks[i], i, addrs, barrier, opts)
	}
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		rank := i
		k.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
			pr := mpi.NewProcess(p, rank, n, modules[rank], 0)
			comm, err := pr.Init()
			if err != nil {
				errs[rank] = err
				return
			}
			errs[rank] = fn(pr, comm)
			pr.Finalize()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return modules
}

func TestOneSocketManyAssociations(t *testing.T) {
	const n = 6
	modules := world(t, n, netsim.DefaultLinkParams(), sctp.Config{}, Options{},
		func(pr *mpi.Process, comm *mpi.Comm) error {
			return comm.Barrier()
		})
	// Unlike the TCP module's N-1 sockets, each rank has exactly one
	// one-to-many socket and N-1 associations on it (paper §3.3).
	for r, m := range modules {
		up := m.Counters()["assocs_up"]
		if up != n-1 {
			t.Errorf("rank %d: %d associations, want %d", r, up, n-1)
		}
	}
}

func TestTagsSpreadAcrossStreams(t *testing.T) {
	modules := world(t, 2, netsim.DefaultLinkParams(), sctp.Config{}, Options{},
		func(pr *mpi.Process, comm *mpi.Comm) error {
			if comm.Rank() == 0 {
				for tag := 0; tag < 10; tag++ {
					if err := comm.Send(1, tag, make([]byte, 100)); err != nil {
						return err
					}
				}
				return nil
			}
			buf := make([]byte, 100)
			for tag := 0; tag < 10; tag++ {
				if _, err := comm.Recv(0, tag, buf); err != nil {
					return err
				}
			}
			return nil
		})
	// Sanity via the mapping itself (counters do not track streams).
	used := map[uint16]bool{}
	for tag := int32(0); tag < 10; tag++ {
		used[modules[0].StreamFor(0, tag)] = true
	}
	if len(used) < 5 {
		t.Errorf("tags used only %d streams", len(used))
	}
}

func TestLongMessageChunkingCounters(t *testing.T) {
	// A 64 KiB send buffer derives 16 KiB middleware chunks.
	modules := world(t, 2, netsim.DefaultLinkParams(), sctp.Config{SndBuf: 64 << 10}, Options{},
		func(pr *mpi.Process, comm *mpi.Comm) error {
			if comm.Rank() == 0 {
				// 200 KiB long message: rendezvous + 13 middleware chunks.
				return comm.Send(1, 0, make([]byte, 200<<10))
			}
			buf := make([]byte, 200<<10)
			st, err := comm.Recv(0, 0, buf)
			if err != nil {
				return err
			}
			if st.Count != 200<<10 {
				return fmt.Errorf("count %d", st.Count)
			}
			return nil
		})
	c := modules[0].Counters()
	if c["bytes_sent"] < 200<<10 {
		t.Errorf("bytes_sent = %d", c["bytes_sent"])
	}
	if c["frame_errors"] != 0 {
		t.Errorf("frame errors: %d", c["frame_errors"])
	}
}

func TestOptionBQueueing(t *testing.T) {
	// Two overlapping long sends on the same tag: the second must queue
	// behind the first on the shared stream (Option B).
	modules := world(t, 2, netsim.DefaultLinkParams(), sctp.Config{}, Options{},
		func(pr *mpi.Process, comm *mpi.Comm) error {
			if comm.Rank() == 0 {
				r1, err := comm.Isend(1, 5, make([]byte, 150<<10))
				if err != nil {
					return err
				}
				r2, err := comm.Isend(1, 5, make([]byte, 150<<10))
				if err != nil {
					return err
				}
				return comm.WaitAll(r1, r2)
			}
			// Post both receives up front so both rendezvous ACKs fire
			// and the two bodies compete for the same stream.
			b1 := make([]byte, 150<<10)
			b2 := make([]byte, 150<<10)
			r1, err := comm.Irecv(0, 5, b1)
			if err != nil {
				return err
			}
			r2, err := comm.Irecv(0, 5, b2)
			if err != nil {
				return err
			}
			return comm.WaitAll(r1, r2)
		})
	if q := modules[0].Counters()["optionb_queued"]; q == 0 {
		t.Error("Option B never queued despite overlapping sends on one stream")
	}
}

func TestSingleStreamModeCounters(t *testing.T) {
	modules := world(t, 2, netsim.DefaultLinkParams(), sctp.Config{Streams: 1}, Options{},
		func(pr *mpi.Process, comm *mpi.Comm) error {
			if comm.Rank() == 0 {
				for tag := 0; tag < 5; tag++ {
					if err := comm.Send(1, tag, []byte("x")); err != nil {
						return err
					}
				}
				return nil
			}
			buf := make([]byte, 4)
			for tag := 0; tag < 5; tag++ {
				if _, err := comm.Recv(0, tag, buf); err != nil {
					return err
				}
			}
			return nil
		})
	for tag := int32(0); tag < 100; tag++ {
		if modules[0].StreamFor(0, tag) != 0 {
			t.Fatal("single-stream module used a nonzero stream")
		}
	}
}

func TestUnderLossIntegration(t *testing.T) {
	lp := netsim.DefaultLinkParams()
	lp.LossRate = 0.02
	world(t, 3, lp, sctp.Config{}, Options{},
		func(pr *mpi.Process, comm *mpi.Comm) error {
			me := comm.Rank()
			for round := 0; round < 5; round++ {
				for peer := 0; peer < comm.Size(); peer++ {
					if peer == me {
						continue
					}
					in := make([]byte, 20<<10)
					if _, err := comm.SendRecv(peer, round, make([]byte, 20<<10), peer, round, in); err != nil {
						return err
					}
				}
			}
			return nil
		})
}

func TestOptionCModule(t *testing.T) {
	modules := world(t, 2, netsim.DefaultLinkParams(), sctp.Config{}, Options{OptionC: true},
		func(pr *mpi.Process, comm *mpi.Comm) error {
			other := 1 - comm.Rank()
			out := make([]byte, 150<<10)
			in := make([]byte, 150<<10)
			sreq, err := comm.Isend(other, 0, out)
			if err != nil {
				return err
			}
			rreq, err := comm.Irecv(other, 0, in)
			if err != nil {
				return err
			}
			return comm.WaitAll(sreq, rreq)
		})
	total := modules[0].Counters()["optionc_ctrl"] + modules[1].Counters()["optionc_ctrl"]
	if total == 0 {
		t.Error("Option C control path never used")
	}
}
