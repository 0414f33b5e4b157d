package sctp1to1rpi

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpi/rpi"
	"repro/internal/netsim"
	"repro/internal/sctp"
	"repro/internal/sim"
)

// world builds n nodes with SCTP stacks and one-to-one modules sharing
// a setup barrier, runs fn per rank, and returns the modules.
func world(t *testing.T, n int, opts Options, fn func(pr *mpi.Process, comm *mpi.Comm) error) []*Module {
	t.Helper()
	k := sim.New(1)
	net := netsim.NewNetwork(k)
	net.SetDefaultLinkParams(netsim.DefaultLinkParams())
	barrier := rpi.NewBarrier(k, n)
	lists := make([][]netsim.Addr, n)
	stacks := make([]*sctp.Stack, n)
	for i := 0; i < n; i++ {
		nd := net.NewNode(fmt.Sprintf("n%d", i))
		nd.AddInterface(netsim.MakeAddr(0, i+1))
		lists[i] = nd.Addrs()
		stacks[i] = sctp.NewStack(nd, sctp.Config{})
	}
	modules := make([]*Module, n)
	for i := 0; i < n; i++ {
		modules[i] = New(stacks[i], i, lists, barrier, opts)
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

// Every rank must hold one dedicated association per peer — the
// one-to-one mesh, not a shared one-to-many socket.
func TestFullMeshOfAssociations(t *testing.T) {
	const n = 5
	modules := world(t, n, Options{}, func(pr *mpi.Process, comm *mpi.Comm) error {
		return comm.Barrier()
	})
	for r, m := range modules {
		if got := m.Counters()["connections"]; got != n-1 {
			t.Errorf("rank %d has %d associations, want %d (one per peer)", r, got, n-1)
		}
	}
}

func TestMessageCounters(t *testing.T) {
	modules := world(t, 2, Options{}, func(pr *mpi.Process, comm *mpi.Comm) error {
		if comm.Rank() == 0 {
			return comm.Send(1, 0, make([]byte, 1000))
		}
		buf := make([]byte, 1000)
		_, err := comm.Recv(0, 0, buf)
		return err
	})
	if got := modules[0].Counters()["bytes_sent"]; got < 1000 {
		t.Errorf("rank 0 bytes_sent = %d", got)
	}
	if got := modules[1].Counters()["bytes_rcvd"]; got < 1000 {
		t.Errorf("rank 1 bytes_rcvd = %d", got)
	}
	if got := modules[1].Counters()["frame_errors"]; got != 0 {
		t.Errorf("frame errors: %d", got)
	}
}

// The TRC→stream mapping is shared with the one-to-many module.
func TestStreamForMatchesOneToMany(t *testing.T) {
	m := &Module{streams: 10}
	for ctx := int32(0); ctx < 4; ctx++ {
		for tag := int32(0); tag < 20; tag++ {
			if got, want := m.StreamFor(ctx, tag), rpi.StreamFor(10, ctx, tag); got != want {
				t.Fatalf("StreamFor(%d,%d) = %d, want %d", ctx, tag, got, want)
			}
		}
	}
	single := &Module{streams: 1}
	if single.StreamFor(1, 2) != 0 {
		t.Fatal("single-stream mode must pin to stream 0")
	}
}

// TestSelectCostCharged: unlike the one-to-many module, the one-to-one
// style pays a per-descriptor poll cost again; with it configured,
// advancing must consume virtual time.
func TestSelectCostCharged(t *testing.T) {
	run := func(pollPerFD time.Duration) float64 {
		k := sim.New(1)
		net := netsim.NewNetwork(k)
		net.SetDefaultLinkParams(netsim.DefaultLinkParams())
		const n = 4
		barrier := rpi.NewBarrier(k, n)
		lists := make([][]netsim.Addr, n)
		stacks := make([]*sctp.Stack, n)
		for i := 0; i < n; i++ {
			nd := net.NewNode(fmt.Sprintf("n%d", i))
			nd.AddInterface(netsim.MakeAddr(0, i+1))
			lists[i] = nd.Addrs()
			stacks[i] = sctp.NewStack(nd, sctp.Config{})
		}
		var end float64
		for i := 0; i < n; i++ {
			rank := i
			m := New(stacks[rank], rank, lists, barrier, Options{
				Cost: rpi.CostModel{PollPerFD: pollPerFD},
			})
			k.Spawn("r", func(p *sim.Proc) {
				pr := mpi.NewProcess(p, rank, n, m, 0)
				comm, err := pr.Init()
				if err != nil {
					return
				}
				for j := 0; j < 20; j++ {
					comm.Barrier()
				}
				end = p.Now().Seconds()
				pr.Finalize()
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	cheap := run(0)
	costly := run(100 * time.Microsecond)
	if costly <= cheap {
		t.Errorf("select cost not charged: %.6f vs %.6f", costly, cheap)
	}
}
