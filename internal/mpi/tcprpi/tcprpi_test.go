package tcprpi

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpi/rpi"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// world builds n nodes with TCP stacks and tcprpi modules sharing a
// setup barrier, and runs fn per rank.
func world(t *testing.T, n int, opts Options, fn func(pr *mpi.Process, comm *mpi.Comm) error) []*Module {
	t.Helper()
	k := sim.New(1)
	net := netsim.NewNetwork(k)
	net.SetDefaultLinkParams(netsim.DefaultLinkParams())
	barrier := rpi.NewBarrier(k, n)
	addrs := make([]netsim.Addr, n)
	stacks := make([]*tcp.Stack, n)
	for i := 0; i < n; i++ {
		nd := net.NewNode(fmt.Sprintf("n%d", i))
		addrs[i] = netsim.MakeAddr(0, i+1)
		nd.AddInterface(addrs[i])
		stacks[i] = tcp.NewStack(nd, tcp.Config{NoDelay: true})
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

func TestFullMeshEstablished(t *testing.T) {
	const n = 5
	modules := world(t, n, Options{}, func(pr *mpi.Process, comm *mpi.Comm) error {
		return comm.Barrier()
	})
	for r, m := range modules {
		if got := m.Counters()["connections"]; got != n-1 {
			t.Errorf("rank %d has %d connections, want %d (one socket per peer)", r, got, n-1)
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
	c0 := modules[0].Counters()
	c1 := modules[1].Counters()
	if c0["bytes_sent"] < 1000 {
		t.Errorf("rank 0 bytes_sent = %d", c0["bytes_sent"])
	}
	if c1["bytes_rcvd"] < 1000 {
		t.Errorf("rank 1 bytes_rcvd = %d", c1["bytes_rcvd"])
	}
	if c1["frame_errors"] != 0 {
		t.Errorf("frame errors: %d", c1["frame_errors"])
	}
}

// TestByteStreamFramingAcrossSegments: messages whose envelope+body do
// not align with segment boundaries must still frame correctly (a 3-byte
// message and a 100 KiB one interleave several segment sizes).
func TestByteStreamFramingAcrossSegments(t *testing.T) {
	world(t, 2, Options{}, func(pr *mpi.Process, comm *mpi.Comm) error {
		if comm.Rank() == 0 {
			for i := 0; i < 10; i++ {
				if err := comm.Send(1, 1, []byte{1, 2, 3}); err != nil {
					return err
				}
				big := make([]byte, 100<<10)
				for j := range big {
					big[j] = byte(j * (i + 1))
				}
				if err := comm.Send(1, 2, big); err != nil {
					return err
				}
			}
			return nil
		}
		small := make([]byte, 3)
		big := make([]byte, 100<<10)
		for i := 0; i < 10; i++ {
			if _, err := comm.Recv(0, 1, small); err != nil {
				return err
			}
			if small[0] != 1 || small[2] != 3 {
				return fmt.Errorf("small corrupt: %v", small)
			}
			st, err := comm.Recv(0, 2, big)
			if err != nil {
				return err
			}
			if st.Count != len(big) {
				return fmt.Errorf("big count %d", st.Count)
			}
			for j := range big {
				if big[j] != byte(j*(i+1)) {
					return fmt.Errorf("big corrupt at %d (round %d)", j, i)
				}
			}
		}
		return nil
	})
}

// TestSelectCostCharged: with a poll cost configured, advancing must
// consume virtual time proportional to the descriptor count.
func TestSelectCostCharged(t *testing.T) {
	run := func(pollPerFD time.Duration) float64 {
		k := sim.New(1)
		net := netsim.NewNetwork(k)
		net.SetDefaultLinkParams(netsim.DefaultLinkParams())
		const n = 4
		barrier := rpi.NewBarrier(k, n)
		addrs := make([]netsim.Addr, n)
		stacks := make([]*tcp.Stack, n)
		for i := 0; i < n; i++ {
			nd := net.NewNode(fmt.Sprintf("n%d", i))
			addrs[i] = netsim.MakeAddr(0, i+1)
			nd.AddInterface(addrs[i])
			stacks[i] = tcp.NewStack(nd, tcp.Config{NoDelay: true})
		}
		var end float64
		for i := 0; i < n; i++ {
			rank := i
			m := New(stacks[rank], rank, addrs, barrier, Options{
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
