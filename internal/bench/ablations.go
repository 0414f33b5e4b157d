package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/sctp"
	"repro/internal/tcp"
)

// An ablationRun returns one variant's virtual completion time at one
// seed.
type ablationRun func(seed int64) (time.Duration, error)

// An ablation is one variant of a design choice the paper argues for
// (or a knob DESIGN.md calls out). Rows of one group share a workload,
// and the first row of a group is the design the stack ships.
type ablation struct {
	group, label string
	run          ablationRun
}

// The run constructors copy opts before setting the seed: one row's
// seeds run concurrently under RunCells and share the captured opts.

// pingPongRun times a 2-rank ping-pong after 5 warmup rounds.
func pingPongRun(opts core.Options, size, iters int) ablationRun {
	return func(seed int64) (time.Duration, error) {
		o := opts
		o.Seed = seed
		r, err := PingPong(o, size, iters, 5)
		return r.Elapsed, err
	}
}

func farmRun(opts core.Options, fc FarmConfig) ablationRun {
	return func(seed int64) (time.Duration, error) {
		o := opts
		o.Seed = seed
		r, err := Farm(o, fc)
		return r.RunTime, err
	}
}

func programRun(opts core.Options, prog core.Program) ablationRun {
	return func(seed int64) (time.Duration, error) {
		o := opts
		o.Seed = seed
		rep, err := core.Run(o, prog)
		if err != nil {
			return 0, err
		}
		return rep.Elapsed, nil
	}
}

// crossingLong: both ranks cross five 200 KiB Isend/Irecv pairs on one
// tag, the long-message race of paper §3.4.
func crossingLong(pr *mpi.Process, comm *mpi.Comm) error {
	other := 1 - comm.Rank()
	out, in := make([]byte, 200<<10), make([]byte, 200<<10)
	for j := 0; j < 5; j++ {
		sreq, err := comm.Isend(other, 0, out)
		if err != nil {
			return err
		}
		rreq, err := comm.Irecv(other, 0, in)
		if err != nil {
			return err
		}
		if err := comm.WaitAll(sreq, rreq); err != nil {
			return err
		}
	}
	return nil
}

// ringBarrier: 40 rounds of a 256 B ring SendRecv plus a Barrier, the
// small-message loop that maximises progress-engine polls.
func ringBarrier(pr *mpi.Process, comm *mpi.Comm) error {
	buf := make([]byte, 256)
	next, prev := (comm.Rank()+1)%comm.Size(), (comm.Rank()+comm.Size()-1)%comm.Size()
	for j := 0; j < 40; j++ {
		if _, err := comm.SendRecv(next, 0, buf, prev, 0, buf); err != nil {
			return err
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
	}
	return nil
}

// tenBulkSends: rank 0 sends ten 256 KiB messages to rank 1.
func tenBulkSends(pr *mpi.Process, comm *mpi.Comm) error {
	buf := make([]byte, 256<<10)
	for j := 0; j < 10; j++ {
		var err error
		if comm.Rank() == 0 {
			err = comm.Send(1, j, buf)
		} else {
			_, err = comm.Recv(0, j, buf)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func ablations() []ablation {
	nagle := func(nodelay bool) ablationRun {
		return pingPongRun(core.Options{Transport: core.TCP, TCPConfig: &tcp.Config{NoDelay: nodelay}}, 200, 30)
	}
	lossyTCP := func(cfg tcp.Config) ablationRun {
		cfg.NoDelay = true
		return pingPongRun(core.Options{Transport: core.TCP, LossRate: 0.02, TCPConfig: &cfg}, 300<<10, 15)
	}
	lossySCTP := func(loss float64, size, iters int, cfg sctp.Config) ablationRun {
		cfg.HBDisable = true
		return pingPongRun(core.Options{Transport: core.SCTP, LossRate: loss, SCTPConfig: &cfg}, size, iters)
	}
	eager := func(limit int) ablationRun {
		return farmRun(core.Options{Transport: core.SCTP, EagerLimit: limit}, FarmConfig{NumTasks: 150, TaskSize: 100 << 10})
	}
	streams := func(n int) ablationRun {
		return farmRun(core.Options{Transport: core.SCTP, LossRate: 0.02, Streams: n},
			FarmConfig{NumTasks: 400, TaskSize: 30 << 10, Fanout: 10})
	}
	optionC := func(on bool) ablationRun {
		return programRun(core.Options{Procs: 2, Transport: core.SCTP, LossRate: 0.01, SCTPOptionC: on}, crossingLong)
	}
	sockets := func(tr core.Transport, procs int) ablationRun {
		return programRun(core.Options{Procs: procs, Transport: tr}, ringBarrier)
	}
	cmt := func(on bool) ablationRun {
		lp := netsim.DefaultLinkParams()
		lp.Bandwidth = 100e6
		return programRun(core.Options{Procs: 2, Transport: core.SCTP, IfacesPerNode: 3, CMT: on, Link: &lp}, tenBulkSends)
	}
	return []ablation{
		{"nagle", "nodelay (LAM)", nagle(true)},
		{"nagle", "nagle on", nagle(false)},
		{"sack", "sack 4 blocks", lossyTCP(tcp.Config{})},
		{"sack", "sack 64 blocks", lossyTCP(tcp.Config{MaxSackBlocks: 64})},
		{"sack", "sack off", lossyTCP(tcp.Config{NoSack: true})},
		{"cwnd", "sctp byte counting", lossySCTP(0.02, 300<<10, 15, sctp.Config{})},
		{"cwnd", "sctp ack counting", lossySCTP(0.02, 300<<10, 15, sctp.Config{AckCountingCwnd: true})},
		{"sack delay", "sctp sack every 2", lossySCTP(0.01, 30<<10, 40, sctp.Config{SackEveryPkts: 2})},
		{"sack delay", "sctp sack every 1", lossySCTP(0.01, 30<<10, 40, sctp.Config{SackEveryPkts: 1})},
		{"eager", "eager 64K", eager(64 << 10)},
		{"eager", "eager 16K", eager(16 << 10)},
		{"eager", "eager 256K", eager(256 << 10)},
		{"streams", "streams 10", streams(10)},
		{"streams", "streams 1", streams(1)},
		{"streams", "streams 2", streams(2)},
		{"streams", "streams 64", streams(64)},
		{"race fix", "option B", optionC(false)},
		{"race fix", "option C", optionC(true)},
		{"sockets 4", "1-to-many 4 procs", sockets(core.SCTP, 4)},
		{"sockets 4", "1-to-1 4 procs", sockets(core.SCTPOneToOne, 4)},
		{"sockets 8", "1-to-many 8 procs", sockets(core.SCTP, 8)},
		{"sockets 8", "1-to-1 8 procs", sockets(core.SCTPOneToOne, 8)},
		{"sockets 16", "1-to-many 16 procs", sockets(core.SCTP, 16)},
		{"sockets 16", "1-to-1 16 procs", sockets(core.SCTPOneToOne, 16)},
		{"cmt", "single path", cmt(false)},
		{"cmt", "cmt 3 paths", cmt(true)},
	}
}

// Ablations runs every design-choice ablation at seeds seed ..
// seed+Table1Seeds-1 and reports each row's mean virtual time. Loss
// placement decides single runs (at one seed SCTP ack counting reads
// 40x faster than byte counting, at the next it loses), so no row is a
// single seed; the rows average as many loss placements as Table 1.
func Ablations(seed int64) (*Table, error) { return ablationTable(seed, ablations()) }

func ablationTable(seed int64, rows []ablation) (*Table, error) {
	ns, err := collect(len(rows)*Table1Seeds, func(i int) (float64, error) {
		a, s := rows[i/Table1Seeds], seed+int64(i%Table1Seeds)
		d, err := a.run(s)
		if err != nil {
			return 0, fmt.Errorf("ablation %s seed %d: %w", a.label, s, err)
		}
		return float64(d.Nanoseconds()), nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablations: design choices (virtual ns, mean of %d seeds)", Table1Seeds),
		Columns: []string{"mean ns", "minus base ns"},
		Notes: []string{
			"base: the first row of each group, the design the stack ships",
			"nagle: TCP 200 B ping-pong x 30; sack: TCP 300 KiB x 15, 2% loss",
			"cwnd: SCTP 300 KiB ping-pong x 15, 2% loss; sack delay: SCTP 30 KiB x 40, 1% loss",
			"eager: SCTP farm, 150 tasks of 100 KiB; streams: SCTP farm, 400 x 30 KiB, fanout 10, 2% loss",
			"race fix (paper §3.4): 2 ranks cross five 200 KiB Isend/Irecv pairs on one tag, SCTP, 1% loss",
			"sockets (paper §3.3): 40 rounds of 256 B ring SendRecv + Barrier over SCTP",
			"cmt: ten 256 KiB sends over 3 interfaces of 100 Mb/s, single path vs concurrent multipath",
		},
		Exact: true,
	}
	var base float64
	for r, mean := range seedMeans(ns, Table1Seeds) {
		// Whole ns, so the two columns subtract exactly as printed.
		mean, a := math.Round(mean), rows[r]
		if r == 0 || rows[r-1].group != a.group {
			base = mean
		}
		t.Rows = append(t.Rows, Row{Label: a.label, Values: []float64{mean, mean - base}})
	}
	return t, nil
}
