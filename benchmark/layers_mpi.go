package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/rpi"
	"repro/internal/sim"
)

// loopRPI is an in-memory rpi.RPI: Send copies the body straight into
// the destination rank's inbox and Advance hands the inbox to the
// middleware. There is no transport, no network and no cost model under
// it, so what the mpi drivers time is the middleware alone: request
// bookkeeping, matching, the unexpected queue and the body copy.
type loopRPI struct {
	net     *loopNet
	rank    int
	deliver rpi.Delivery
	inbox   []loopMsg
	wake    *sim.Cond
}

type loopMsg struct {
	env  rpi.Envelope
	body []byte
}

type loopNet struct{ ranks []*loopRPI }

func newLoopNet(k *sim.Kernel, n int) *loopNet {
	ln := &loopNet{ranks: make([]*loopRPI, n)}
	for i := range ln.ranks {
		ln.ranks[i] = &loopRPI{net: ln, rank: i, wake: sim.NewCond(k)}
	}
	return ln
}

func (l *loopRPI) Init(*sim.Proc) error       { return nil }
func (l *loopRPI) SetDelivery(d rpi.Delivery) { l.deliver = d }
func (l *loopRPI) Finalize(*sim.Proc)         {}
func (l *loopRPI) Abort(*sim.Proc)            {}
func (l *loopRPI) Counters() rpi.Counters     { return rpi.NewCounters() }

func (l *loopRPI) Send(dest int, env rpi.Envelope, body []byte, onQueued func()) {
	peer := l.net.ranks[dest]
	var kept []byte
	if len(body) > 0 {
		kept = append(kept, body...)
	}
	peer.inbox = append(peer.inbox, loopMsg{env, kept})
	peer.wake.Signal()
	if onQueued != nil {
		onQueued()
	}
}

func (l *loopRPI) Advance(p *sim.Proc, block bool) error {
	for block && len(l.inbox) == 0 {
		l.wake.Wait(p)
	}
	// Deliveries may send (rendezvous ACKs), which appends to other
	// ranks' inboxes but never to this one's, so the slice is stable.
	for _, m := range l.inbox {
		l.deliver(m.env, m.body)
	}
	l.inbox = l.inbox[:0]
	return nil
}

// loopWorld spawns an n-rank job over the loopback RPI and runs fn on
// every rank.
func loopWorld(n int, fn func(pr *mpi.Process, comm *mpi.Comm) error) error {
	k := sim.New(1)
	ln := newLoopNet(k, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		rank := i
		k.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
			pr := mpi.NewProcess(p, rank, n, ln.ranks[rank], 0)
			comm, err := pr.Init()
			if err == nil {
				err = fn(pr, comm)
			}
			errs[rank] = err
		})
	}
	if err := k.Run(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (ds *driverSet) mpiDrivers() {
	// 64 B ping-pong between two ranks: cost per message.
	ns, allocs := ds.rounds(1_100_000, func(n int) measured {
		var m measured
		err := loopWorld(2, func(pr *mpi.Process, comm *mpi.Comm) error {
			msg, buf := make([]byte, 64), make([]byte, 64)
			peer := 1 - comm.Rank()
			var w stopwatch
			if comm.Rank() == 0 {
				w = startWatch()
			}
			for i := 0; i < n/2; i++ {
				if comm.Rank() == 0 {
					if err := comm.Send(peer, 0, msg); err != nil {
						return err
					}
					if _, err := comm.Recv(peer, 0, buf); err != nil {
						return err
					}
				} else {
					if _, err := comm.Recv(peer, 0, buf); err != nil {
						return err
					}
					if err := comm.Send(peer, 0, msg); err != nil {
						return err
					}
				}
			}
			if comm.Rank() == 0 {
				m = w.stop(n / 2 * 2)
			}
			return nil
		})
		if err != nil {
			return measured{}
		}
		return m
	})
	ds.set("mpi.loop_sendrecv_ns", ns)
	ds.set("mpi.loop_sendrecv_allocs", allocs)

	// A receive whose message sits behind 1024 unexpected ones. Rank 1
	// sends 1024 fillers on tag 1 that are never received, then rounds
	// of 64 wanted messages on tag 2 and a go-ahead on tag 3. Once rank 0
	// has the go-ahead the round's messages are all queued, and each
	// Recv(tag 2) scans past the fillers to its match.
	ns, _ = ds.rounds(640_000, func(n int) measured {
		const fillers, perRound = 1024, 64
		rounds := n/perRound + 1
		var m measured
		err := loopWorld(2, func(pr *mpi.Process, comm *mpi.Comm) error {
			msg, buf := make([]byte, 64), make([]byte, 64)
			if comm.Rank() == 1 {
				for i := 0; i < fillers; i++ {
					if err := comm.Send(0, 1, msg); err != nil {
						return err
					}
				}
				for r := 0; r < rounds; r++ {
					for i := 0; i <= perRound; i++ {
						tag := 2
						if i == perRound {
							tag = 3
						}
						if err := comm.Send(0, tag, msg); err != nil {
							return err
						}
					}
					if _, err := comm.Recv(0, 4, buf); err != nil {
						return err
					}
				}
				return nil
			}
			var wall time.Duration
			var mallocs uint64
			for r := 0; r < rounds; r++ {
				if _, err := comm.Recv(1, 3, buf); err != nil {
					return err
				}
				w := startWatch()
				for i := 0; i < perRound; i++ {
					if _, err := comm.Recv(1, 2, buf); err != nil {
						return err
					}
				}
				part := w.stop(perRound)
				wall, mallocs = wall+part.wall, mallocs+part.mallocs
				if err := comm.Send(1, 4, msg); err != nil {
					return err
				}
			}
			m = measured{wall: wall, mallocs: mallocs, ops: rounds * perRound}
			return nil
		})
		if err != nil {
			return measured{}
		}
		return m
	})
	ds.set("mpi.unexpected_match_ns", ns)
}

// benchDriver times the Fig. 8 cells through bench.RunCells serially and
// at nproc workers (ROADMAP 1d: the sweep runner measured at
// GOMAXPROCS > 1) and requires the two tables to be identical. It is the
// one place the benchmark raises GOMAXPROCS to nproc: parallel cells are
// separate kernels, which is what more than one P is for.
func (ds *driverSet) benchDriver() {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	iters := 240
	switch ds.mode {
	case quickDrivers:
		iters = 30
	case smokeDrivers:
		iters = 2
	}
	cells := len(bench.Fig8Sizes) * len(fig8Transports)
	sweep := func(workers int) ([]time.Duration, time.Duration, error) {
		old := bench.Parallelism()
		bench.SetParallelism(workers)
		defer bench.SetParallelism(old)
		out := make([]time.Duration, cells)
		t0 := time.Now()
		err := bench.RunCells(cells, func(i int) error {
			size, tr := bench.Fig8Sizes[i/len(fig8Transports)], fig8Transports[i%len(fig8Transports)]
			r, err := bench.PingPong(core.Options{Transport: tr, Seed: 1}, size, iters, fig8Warmup)
			out[i] = r.Elapsed
			return err
		})
		return out, time.Since(t0), err
	}
	serial, serialWall, err := sweep(1)
	if err != nil {
		ds.fail(err)
		return
	}
	parallel, parallelWall, err := sweep(runtime.NumCPU())
	if err != nil {
		ds.fail(err)
		return
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			ds.fail(fmt.Errorf("bench.RunCells: cell %d differs between serial and parallel sweeps", i))
			return
		}
	}
	ds.set("bench.runcells_speedup", float64(serialWall)/float64(parallelWall))
}
