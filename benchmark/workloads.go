package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netsim/topo"
)

// workload is one named benchmark input. Iteration counts are fixed
// constants, never time-based, so every virtual-time column is a pure
// function of the seed. scale divides the counts (1 = full size, -1 = a
// full-size set-up with no measured work); only the tests pass others.
type workload struct {
	name string
	why  string
	seed int64 // simulation seed: the loss pattern is part of the workload
	reps int   // timed repetitions when -seconds is 0
	run  func(r *rep, seeds seeds, scale int, tr *tracer)

	// What the budget needs to know to pick driver figures.
	lossy      bool    // loss recovery is on the path: use the 2% drivers
	small      bool    // 64 B bodies: no reassembly, per-message transport cost
	tcpShare   float64 // share of the messages that travel over TCP
	fabricHops float64 // mean ports per packet on a routed fabric; 0 on the mesh
}

// seeds are the two seeds of a run. sim seeds the simulation kernel and
// so fixes the loss pattern and every virtual-time column; it is the
// workload's own constant unless -simseed overrides it. payload comes
// from -seed and generates the message bodies, which change no timing.
type seeds struct{ sim, payload int64 }

var workloads = []workload{
	{
		name: "pp_lossy_sctp",
		why:  "8-rank pairwise 30 KiB ping-pong at 2% loss over SCTP: fragmentation, SACK gap blocks, T3 and fast retransmit carry the run (paper Table 1 regime)",
		seed: 3, reps: 3, lossy: true,
		run: func(r *rep, s seeds, scale int, tr *tracer) {
			runPingPong(r, core.Options{Transport: core.SCTP, Seed: s.sim, LossRate: 0.02, Procs: 8}, s.payload, 30<<10, scaled(ppLossyIters, scale), 0, tr)
		},
	},
	{
		name: "pp_lossy_tcp",
		why:  "the same program over TCP: tcp and the byte-stream framer do the work and sctp none, the control for sctp-only changes",
		seed: 3, reps: 3, lossy: true, tcpShare: 1,
		run: func(r *rep, s seeds, scale int, tr *tracer) {
			runPingPong(r, core.Options{Transport: core.TCP, Seed: s.sim, LossRate: 0.02, Procs: 8}, s.payload, 30<<10, scaled(ppLossyIters, scale), 0, tr)
		},
	},
	{
		name: "pp_small_clean",
		why:  "8-rank pairwise 64 B ping-pong without loss: per-message cost in sim, rpi, poller and mpi dominates and loss recovery is bypassed",
		seed: 1, reps: 3, small: true,
		run: func(r *rep, s seeds, scale int, tr *tracer) {
			runPingPong(r, core.Options{Transport: core.SCTP, Seed: s.sim, Procs: 8}, s.payload, 64, scaled(ppSmallIters, scale), 0, tr)
		},
	},
	{
		name: "fig8_sweep",
		why:  "paper Fig. 8: 2-rank ping-pong over 14 sizes x {TCP,SCTP}, no loss: long clean trains, cwnd growth and the only rendezvous (over 64 KiB) coverage",
		seed: 1, reps: 3,
		run: runFig8,
	},
	{
		name: "farm_fanout10",
		why:  "paper Fig. 11 Bulk Processor Farm, fanout 10 at 1% loss: wildcard matching, unexpected queue, 10 busy streams and a large retained heap",
		seed: 1, reps: 5,
		run: runFarm,
	},
	{
		name: "allreduce_fabric",
		why:  "128 ranks on a generated fat-tree, 8 KiB Allreduce rounds: N^2 mesh bring-up, routed multi-hop netsim, many sim procs and O(log N) collectives",
		seed: 1, reps: 3,
		run: runAllreduce,
	},
}

// scaled divides a full-size count. A negative scale is a set-up-only
// cycle: the cluster is built as for -scale, but no measured work runs.
func scaled(n, scale int) int {
	if scale < 0 {
		return 0
	}
	return n / scale
}

// Sizes: one timed repetition is 1.5-3 s on the reference box, so that a
// 10 s measurement holds at least four of them.
const (
	ppLossyIters = 3000
	ppSmallIters = 30000
)

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// --- ping-pong (pp_lossy_sctp, pp_lossy_tcp, pp_small_clean, fig8_sweep) --

// runPingPong pairs rank with rank^1; the lower rank sends first. With 8
// ranks and no warm-up it is the lossy ping-pong of
// internal/bench/perf_test.go; with 2 ranks it is bench.PingPong: warmup
// untimed round trips, a barrier, then iters timed ones, and rank 0's
// elapsed virtual time over those is pinned for -check against
// bench.PingPong(opts, size, iters, warmup).Elapsed. Every body is
// verified. One operation is one round trip at the lower rank of a pair.
func runPingPong(r *rep, opts core.Options, payloadSeed int64, size, iters, warmup int, tr *tracer) {
	runCell(r, opts, payloadSeed, func(rc *rankCtx) error {
		seed, me, peer := rc.cell.seed, rc.rank, rc.rank^1
		mine, theirs := newPatterns(seed, me, size), newPatterns(seed, peer, size)
		var out [2][]byte
		for parity := range out {
			out[parity] = make([]byte, size)
			mine.stamp(out[parity], seed, me, 0, parity)
		}
		in := make([]byte, size)
		ping := func(i int, timed bool) error {
			msg := out[i&1]
			restamp(msg, i)
			if me < peer {
				t0 := rc.pr.P.Now()
				if err := rc.send(peer, 0, msg); err != nil {
					return err
				}
				st, err := rc.recv(peer, 0, in)
				if err != nil {
					return err
				}
				if timed {
					rc.sample(rc.pr.P.Now() - t0)
				}
				rc.check(theirs.verify(in[:st.Count], seed, peer, 0, i), st.Count)
				return nil
			}
			st, err := rc.recv(peer, 0, in)
			if err != nil {
				return err
			}
			rc.check(theirs.verify(in[:st.Count], seed, peer, 0, i), st.Count)
			return rc.send(peer, 0, msg)
		}
		for i := 0; i < warmup; i++ {
			if err := ping(i, false); err != nil {
				return err
			}
		}
		// Warm-up bodies are verified but are not timed-region payload.
		rc.payload = 0
		if err := rc.open(); err != nil {
			return err
		}
		t0 := rc.pr.P.Now()
		for i := warmup; i < warmup+iters; i++ {
			if err := ping(i, true); err != nil {
				return err
			}
		}
		if me == 0 {
			rc.cell.pinned = rc.pr.P.Now() - t0
		}
		return rc.close()
	}, iters, tr)
}

const (
	fig8Iters  = 400
	fig8Warmup = 10
)

var fig8Transports = []core.Transport{core.TCP, core.SCTP}

func runFig8(r *rep, s seeds, scale int, tr *tracer) {
	iters := scaled(fig8Iters, scale)
	for _, size := range bench.Fig8Sizes {
		for _, t := range fig8Transports {
			runPingPong(r, core.Options{Transport: t, Seed: s.sim, Procs: 2}, s.payload, size, iters, fig8Warmup, tr)
		}
	}
}

// --- farm_fanout10 -----------------------------------------------------

// Farm tags and defaults mirror internal/bench/farm.go; -check pins the
// manager's run time to bench.Farm under the same options.
const (
	farmTagRequest = 1000
	farmTagResult  = 1001
	farmTagStop    = 1002
)

var farmConfig = bench.FarmConfig{
	NumTasks:    10000,
	TaskSize:    30 << 10,
	Fanout:      10,
	MaxWorkTags: 10,
	Outstanding: 10,
	ComputePer:  10 * time.Nanosecond,
	ResultSize:  64,
}

func farmOptions(seed int64) core.Options {
	return core.Options{Transport: core.SCTP, Seed: seed, LossRate: 0.01, Procs: 8}
}

func runFarm(r *rep, s seeds, scale int, tr *tracer) {
	fc := farmConfig
	fc.NumTasks = scaled(fc.NumTasks, scale)
	runCell(r, farmOptions(s.sim), s.payload, func(rc *rankCtx) error {
		var body func(*rankCtx, bench.FarmConfig) error = farmWorker
		if rc.rank == 0 {
			body = farmManager
		}
		return body(rc, fc)
	}, fc.NumTasks, tr)
}

// A send completes at the MPI level before the SCTP module has copied
// its body (sctprpi.Send runs onQueued first and hands the caller's
// slice to the message sender), and under fanout 10 the manager's tasks
// sit queued for most of the run. A task buffer must therefore never be
// rewritten once it has been sent: the manager keeps one immutable
// buffer per (tag, parity), where parity is that of the task's position
// in its tag's sequence, and the task's index is not carried. Results
// are 64 B and leave the worker's queue at once, so they do carry a
// per-worker sequence number, from a ring of buffers deep enough that a
// buffer is rewritten only after the tasks that caused its last use
// have long been answered.

// farmManager is bench.Farm's manager with verified results. Its MPI
// call sequence and message sizes are those of the original, so the
// virtual timeline is identical.
func farmManager(rc *rankCtx, fc bench.FarmConfig) error {
	seed, n := rc.cell.seed, rc.comm.Size()
	pat := newPatterns(seed, 0, fc.TaskSize)
	task := make([][2][]byte, fc.MaxWorkTags)
	for tag := range task {
		for parity := range task[tag] {
			task[tag][parity] = make([]byte, fc.TaskSize)
			pat.stamp(task[tag][parity], seed, 0, tag, parity)
		}
	}
	results := make([]*patterns, n)
	for w := 1; w < n; w++ {
		results[w] = newPatterns(seed, w, fc.ResultSize)
	}
	next := make([]int, n) // next result sequence number expected from each worker
	buf := make([]byte, fc.ResultSize+8)
	stop := []byte{0}

	if err := rc.open(); err != nil {
		return err
	}
	t0 := rc.pr.P.Now()
	tasksSent, resultsGot := 0, 0
	for resultsGot < fc.NumTasks {
		st, err := rc.recv(mpi.AnySource, mpi.AnyTag, buf)
		if err != nil {
			return err
		}
		switch st.Tag {
		case farmTagResult:
			resultsGot++
			w := st.Source
			rc.check(results[w].verify(buf[:st.Count], seed, w, farmTagResult, next[w]), st.Count)
			next[w]++
		case farmTagRequest:
			rc.check(st.Count == 1 && buf[0] == 1, st.Count)
			batch := fc.Fanout
			if tasksSent+batch > fc.NumTasks {
				batch = fc.NumTasks - tasksSent
			}
			for i := 0; i < batch; i++ {
				tag := tasksSent % fc.MaxWorkTags
				parity := tasksSent / fc.MaxWorkTags & 1
				if err := rc.send(st.Source, tag, task[tag][parity]); err != nil {
					return err
				}
				tasksSent++
			}
		default:
			return fmt.Errorf("farm manager: unexpected tag %d", st.Tag)
		}
	}
	for w := 1; w < n; w++ {
		if err := rc.send(w, farmTagStop, stop); err != nil {
			return err
		}
	}
	rc.cell.pinned = rc.pr.P.Now() - t0
	return rc.close()
}

// farmWorker is bench.Farm's worker with verified tasks. One operation
// for the latency column is the interval between consecutive task
// arrivals at this worker.
func farmWorker(rc *rankCtx, fc bench.FarmConfig) error {
	seed := rc.cell.seed
	tasks := newPatterns(seed, 0, fc.TaskSize)
	results := newPatterns(seed, rc.rank, fc.ResultSize)
	slots := fc.Outstanding + fc.Fanout
	ring := make([][]byte, 2*slots)
	for i := range ring {
		ring[i] = make([]byte, fc.ResultSize)
		results.stamp(ring[i], seed, rc.rank, farmTagResult, i)
	}
	request := []byte{1}
	bufs := make([][]byte, slots)
	reqs := make([]*mpi.Request, slots)
	for i := range bufs {
		bufs[i] = make([]byte, fc.TaskSize)
	}

	if err := rc.open(); err != nil {
		return err
	}
	var err error
	for i := range bufs {
		if reqs[i], err = rc.comm.Irecv(0, mpi.AnyTag, bufs[i]); err != nil {
			return err
		}
	}
	for i := 0; i < fc.Outstanding; i++ {
		if err := rc.send(0, farmTagRequest, request); err != nil {
			return err
		}
	}
	last, seq := rc.pr.P.Now(), 0
	for {
		i, st, err := rc.waitAny(reqs)
		if err != nil {
			return err
		}
		switch {
		case st.Tag == farmTagStop:
			rc.check(st.Count == 1 && bufs[i][0] == 0, st.Count)
			return rc.close()
		case st.Tag < fc.MaxWorkTags:
			now := rc.pr.P.Now()
			rc.sample(now - last)
			last = now
			parity := 0
			if st.Count == fc.TaskSize {
				parity = int(binary.LittleEndian.Uint64(bufs[i][16:]) & 1)
			}
			rc.check(tasks.verify(bufs[i][:st.Count], seed, 0, st.Tag, parity), st.Count)
			rc.pr.P.Sleep(fc.ComputePer * time.Duration(st.Count))
			msg := ring[seq%len(ring)]
			restamp(msg, seq)
			seq++
			if err := rc.send(0, farmTagResult, msg); err != nil {
				return err
			}
			if err := rc.send(0, farmTagRequest, request); err != nil {
				return err
			}
		default:
			return fmt.Errorf("farm worker: unexpected tag %d", st.Tag)
		}
		if reqs[i], err = rc.comm.Irecv(0, mpi.AnyTag, bufs[i]); err != nil {
			return err
		}
	}
}

// --- allreduce_fabric --------------------------------------------------

const (
	fabricRanks  = 128
	fabricRounds = 32
	fabricBytes  = 8 << 10
)

func fabricOptions(seed int64, ranks int) core.Options {
	return core.Options{
		Transport: core.SCTP,
		Procs:     ranks,
		Seed:      seed,
		Topo:      &topo.Config{Kind: topo.FatTree},
		Deadline:  120 * time.Second,
	}
}

// runAllreduce times rounds of an 8 KiB int64-sum Allreduce. Rank r
// contributes (r+1)*(i+1) + round + payload seed at element i, so the result at
// every rank is the closed form (i+1)*N(N+1)/2 + N*(round+payload seed).
func runAllreduce(r *rep, s seeds, scale int, tr *tracer) {
	ranks, rounds := fabricRanks, fabricRounds
	if scale > 1 || scale < -1 {
		ranks, rounds = 16, 4
	}
	if scale < 0 {
		rounds = 0
	}
	runCell(r, fabricOptions(s.sim, ranks), s.payload, func(rc *rankCtx) error {
		n := int64(rc.comm.Size())
		vec := make([]byte, fabricBytes)
		if err := rc.open(); err != nil {
			return err
		}
		for round := 0; round < rounds; round++ {
			base := int64(round) + s.payload
			for i := 0; i < fabricBytes/8; i++ {
				v := int64(rc.rank+1)*int64(i+1) + base
				binary.LittleEndian.PutUint64(vec[8*i:], uint64(v))
			}
			t0 := rc.pr.P.Now()
			if err := rc.allreduce(vec); err != nil {
				return err
			}
			rc.sample(rc.pr.P.Now() - t0)
			ok := true
			for i := 0; i < fabricBytes/8; i++ {
				want := int64(i+1)*n*(n+1)/2 + n*base
				if int64(binary.LittleEndian.Uint64(vec[8*i:])) != want {
					ok = false
					break
				}
			}
			rc.check(ok, fabricBytes)
		}
		return rc.close()
	}, rounds, tr)
}
