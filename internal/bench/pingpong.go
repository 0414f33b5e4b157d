package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
)

// PingPongResult is one MPBench-style measurement.
type PingPongResult struct {
	MsgSize    int
	Iters      int
	Elapsed    time.Duration
	Throughput float64 // bytes/second, one-way payload over total time
}

// PingPong runs the MPBench ping-pong test: two processes repeatedly
// exchange a message of msgSize bytes, all with the same tag (§4.1.1).
func PingPong(opts core.Options, msgSize, iters, warmup int) (PingPongResult, error) {
	opts.Procs = 2
	var res PingPongResult
	_, err := core.Run(opts, func(pr *mpi.Process, comm *mpi.Comm) error {
		msg := make([]byte, msgSize)
		buf := make([]byte, msgSize)
		peer := 1 - comm.Rank()
		// Warmup rounds let RTO estimators and cwnd settle, as MPBench
		// does.
		for i := 0; i < warmup; i++ {
			if err := pingOnce(comm, peer, msg, buf); err != nil {
				return err
			}
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		t0 := pr.P.Now()
		for i := 0; i < iters; i++ {
			if err := pingOnce(comm, peer, msg, buf); err != nil {
				return err
			}
		}
		if comm.Rank() == 0 {
			el := pr.P.Now() - t0
			res = PingPongResult{
				MsgSize:    msgSize,
				Iters:      iters,
				Elapsed:    el,
				Throughput: float64(msgSize*iters) / el.Seconds(),
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	if res.Iters == 0 {
		return res, fmt.Errorf("bench: ping-pong produced no result")
	}
	return res, nil
}

func pingOnce(comm *mpi.Comm, peer int, msg, buf []byte) error {
	if comm.Rank() == 0 {
		if err := comm.Send(peer, 0, msg); err != nil {
			return err
		}
		_, err := comm.Recv(peer, 0, buf)
		return err
	}
	if _, err := comm.Recv(peer, 0, buf); err != nil {
		return err
	}
	return comm.Send(peer, 0, msg)
}

// Fig8Sizes is the message-size sweep of Figure 8.
var Fig8Sizes = []int{
	1, 16, 64, 256, 1024, 4096, 8192, 16384, 22528, 32768,
	49152, 65535, 98302, 131069,
}

// Fig8Transports regenerates Figure 8, ping-pong throughput for each
// size under no loss, over a transport list (the -rpi flag of
// cmd/paper): one throughput column per transport plus each later
// transport's throughput normalized to the first. nil selects the
// paper's pair (TCP, SCTP).
func Fig8Transports(seed int64, iters int, transports []core.Transport) (*Table, error) {
	if len(transports) == 0 {
		transports = []core.Transport{core.TCP, core.SCTP}
	}
	base := transports[0]
	t := &Table{
		Title: "Figure 8: MPBench ping-pong, no loss (throughput normalized to " +
			base.String() + ")",
		Notes: []string{
			"paper shape: TCP wins small messages, crossover ~22 KiB, SCTP wins large",
		},
	}
	for _, tr := range transports {
		t.Columns = append(t.Columns, tr.String()+" B/s")
	}
	for _, tr := range transports[1:] {
		t.Columns = append(t.Columns, fmt.Sprintf("%s/%s", tr, base))
	}
	// One sweep cell per (size, transport); each runs in its own
	// simulation and is independent of the rest.
	nt := len(transports)
	results, err := collect(len(Fig8Sizes)*nt, func(i int) (float64, error) {
		sz, tr := Fig8Sizes[i/nt], transports[i%nt]
		it := iters
		if sz >= 32768 && it > 60 {
			it = 60
		}
		r, err := PingPong(core.Options{Transport: tr, Seed: seed}, sz, it, 10)
		if err != nil {
			return 0, fmt.Errorf("fig8 %v size %d: %w", tr, sz, err)
		}
		return r.Throughput, nil
	})
	if err != nil {
		return nil, err
	}
	for si, sz := range Fig8Sizes {
		vals := make([]float64, 0, 2*nt-1)
		vals = append(vals, results[si*nt:(si+1)*nt]...)
		for _, v := range vals[1:nt] {
			vals = append(vals, v/vals[0])
		}
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%d bytes", sz), Values: vals})
	}
	return t, nil
}

// Table1Seeds is how many independent runs Table1 averages: loss-event
// placement (especially burst-tail losses that cost a full RTO)
// dominates single-run variance, as the paper's own multi-run
// methodology for the farm program acknowledges.
const Table1Seeds = 4

// Table1 regenerates Table 1: ping-pong throughput under 1% and 2%
// loss for 30 KiB (short/eager) and 300 KiB (long/rendezvous) messages,
// averaged over Table1Seeds seeds.
func Table1(seed int64, iters int) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Table 1: ping-pong under loss (bytes/second, mean of %d runs)",
			Table1Seeds),
		Columns: []string{"SCTP 1%", "TCP 1%", "SCTP 2%", "TCP 2%"},
		Notes: []string{
			"paper: 30K  -> SCTP 54,779  TCP 1,924 | SCTP 44,614  TCP 1,030",
			"paper: 300K -> SCTP  5,870  TCP 1,818 | SCTP  2,825  TCP   885",
		},
	}
	sizes := []int{30 << 10, 300 << 10}
	losses := []float64{0.01, 0.02}
	trs := []core.Transport{core.SCTP, core.TCP}
	// Flatten the (size, loss, transport, seed) grid into independent
	// cells; sums are assembled afterwards in grid order.
	cells := len(sizes) * len(losses) * len(trs) * Table1Seeds
	results, err := collect(cells, func(i int) (float64, error) {
		s := int64(i % Table1Seeds)
		rest := i / Table1Seeds
		tr := trs[rest%len(trs)]
		rest /= len(trs)
		loss := losses[rest%len(losses)]
		sz := sizes[rest/len(losses)]
		r, err := PingPong(core.Options{
			Transport: tr, Seed: seed + s, LossRate: loss,
		}, sz, iters, 2)
		if err != nil {
			return 0, fmt.Errorf("table1 %v loss %.0f%% size %d seed %d: %w",
				tr, loss*100, sz, seed+s, err)
		}
		return r.Throughput, nil
	})
	if err != nil {
		return nil, err
	}
	means := seedMeans(results, Table1Seeds)
	perSize := len(losses) * len(trs)
	for i, sz := range sizes {
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%dK", sz>>10),
			Values: means[i*perSize : (i+1)*perSize : (i+1)*perSize]})
	}
	return t, nil
}
