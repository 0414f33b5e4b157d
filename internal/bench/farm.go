package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
)

// Farm tags. Task tags are 0..MaxWorkTags-1 (mapped to SCTP streams by
// the RPI); control tags sit above them.
const (
	farmTagRequest = 1000
	farmTagResult  = 1001
	farmTagStop    = 1002
)

// FarmConfig parameterizes the Bulk Processor Farm program (§4.2.1).
type FarmConfig struct {
	NumTasks    int           // total tasks the manager distributes (paper: 10,000)
	TaskSize    int           // task message size (30 KiB short / 300 KiB long)
	Fanout      int           // tasks sent per request (paper: 1 and 10)
	MaxWorkTags int           // distinct task types/tags (paper default 10)
	Outstanding int           // job requests each worker keeps open (paper: 10)
	ComputePer  time.Duration // per-byte processing time at the worker
	ResultSize  int           // result message size
}

func (fc FarmConfig) withDefaults() FarmConfig {
	if fc.NumTasks == 0 {
		fc.NumTasks = 10000
	}
	if fc.TaskSize == 0 {
		fc.TaskSize = 30 << 10
	}
	if fc.Fanout == 0 {
		fc.Fanout = 1
	}
	if fc.MaxWorkTags == 0 {
		fc.MaxWorkTags = 10
	}
	if fc.Outstanding == 0 {
		fc.Outstanding = 10
	}
	if fc.ComputePer == 0 {
		fc.ComputePer = 10 * time.Nanosecond // ~100 MB/s task processing
	}
	if fc.ResultSize == 0 {
		fc.ResultSize = 64
	}
	return fc
}

// FarmResult reports a farm run.
type FarmResult struct {
	RunTime   time.Duration
	TasksDone int
}

// Farm runs the Bulk Processor Farm: rank 0 is the manager; every other
// rank is a worker with a fixed number of outstanding job requests,
// pre-posted nonblocking receives, and MPI_ANY_TAG willingness to do
// any task type. The manager services requests in arrival order
// (MPI_ANY_SOURCE) and assigns each task a tag in [0, MaxWorkTags).
func Farm(opts core.Options, fc FarmConfig) (FarmResult, error) {
	fc = fc.withDefaults()
	if opts.Procs == 0 {
		opts.Procs = 8
	}
	var res FarmResult
	_, err := core.Run(opts, func(pr *mpi.Process, comm *mpi.Comm) error {
		if err := comm.Barrier(); err != nil {
			return err
		}
		t0 := pr.P.Now()
		var err error
		if comm.Rank() == 0 {
			err = farmManager(pr, comm, fc)
			if err == nil {
				res.RunTime = pr.P.Now() - t0
				res.TasksDone = fc.NumTasks
			}
		} else {
			err = farmWorker(pr, comm, fc)
		}
		if err != nil {
			return err
		}
		return comm.Barrier()
	})
	return res, err
}

// farmManager distributes NumTasks in Fanout batches, collecting one
// result per task. Requests that arrive after the tasks run out go
// unanswered; once every result is in, the manager sends exactly one
// stop to each worker. This termination is robust to tasks, results and
// stops overtaking each other across streams — which they legitimately
// do in the SCTP module.
func farmManager(pr *mpi.Process, comm *mpi.Comm, fc FarmConfig) error {
	tasksSent := 0
	resultsGot := 0
	task := make([]byte, fc.TaskSize)
	buf := make([]byte, fc.ResultSize+8)

	for resultsGot < fc.NumTasks {
		st, err := comm.Recv(mpi.AnySource, mpi.AnyTag, buf)
		if err != nil {
			return err
		}
		switch st.Tag {
		case farmTagResult:
			resultsGot++
		case farmTagRequest:
			if tasksSent < fc.NumTasks {
				n := fc.Fanout
				if tasksSent+n > fc.NumTasks {
					n = fc.NumTasks - tasksSent
				}
				for i := 0; i < n; i++ {
					tag := tasksSent % fc.MaxWorkTags
					if err := comm.Send(st.Source, tag, task); err != nil {
						return err
					}
					tasksSent++
				}
			}
		default:
			return fmt.Errorf("farm manager: unexpected tag %d", st.Tag)
		}
	}
	for w := 1; w < comm.Size(); w++ {
		if err := comm.Send(w, farmTagStop, []byte{0}); err != nil {
			return err
		}
	}
	return nil
}

// farmWorker keeps Outstanding job requests open, pre-posts nonblocking
// receives with MPI_ANY_TAG, processes whatever task arrives first
// (overlap of communication with computation), returns a result, and
// requests more work.
func farmWorker(pr *mpi.Process, comm *mpi.Comm, fc FarmConfig) error {
	slots := fc.Outstanding + fc.Fanout
	bufs := make([][]byte, slots)
	reqs := make([]*mpi.Request, slots)
	var err error
	for i := range bufs {
		bufs[i] = make([]byte, fc.TaskSize)
		reqs[i], err = comm.Irecv(0, mpi.AnyTag, bufs[i])
		if err != nil {
			return err
		}
	}
	result := make([]byte, fc.ResultSize)
	for i := 0; i < fc.Outstanding; i++ {
		if err := comm.Send(0, farmTagRequest, []byte{1}); err != nil {
			return err
		}
	}
	for {
		i, st, err := comm.WaitAny(reqs...)
		if err != nil {
			return err
		}
		switch {
		case st.Tag == farmTagStop:
			// The manager sends the stop only after every result is in,
			// so there is no outstanding work left for this worker.
			// Remaining posted receives are abandoned at Finalize, as
			// MPI programs cancel leftover requests at exit.
			return nil
		case st.Tag < fc.MaxWorkTags:
			// Process the task: compute time proportional to its size.
			pr.P.Sleep(fc.ComputePer * time.Duration(st.Count))
			if err := comm.Send(0, farmTagResult, result); err != nil {
				return err
			}
			if err := comm.Send(0, farmTagRequest, []byte{1}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("farm worker: unexpected tag %d", st.Tag)
		}
		// Re-post the consumed receive slot.
		reqs[i], err = comm.Irecv(0, mpi.AnyTag, bufs[i])
		if err != nil {
			return err
		}
	}
}

// FarmSweep runs the farm across loss rates for one message size,
// producing one figure panel.
type FarmSweep struct {
	Title      string
	Transports []core.Transport
	LossRates  []float64
	Config     FarmConfig
	Opts       core.Options
}

// Run executes the sweep.
func (s *FarmSweep) Run() (*Table, error) {
	t := &Table{Title: s.Title}
	for _, tr := range s.Transports {
		t.Columns = append(t.Columns, tr.String()+" (s)")
	}
	// Each (loss, transport) cell is an independent simulation; run
	// them on the sweep worker pool and assemble rows in order.
	nt := len(s.Transports)
	results, err := collect(len(s.LossRates)*nt, func(i int) (float64, error) {
		loss, tr := s.LossRates[i/nt], s.Transports[i%nt]
		opts := s.Opts
		opts.Transport = tr
		opts.LossRate = loss
		r, err := Farm(opts, s.Config)
		if err != nil {
			return 0, fmt.Errorf("farm %v loss %.0f%%: %w", tr, loss*100, err)
		}
		return r.RunTime.Seconds(), nil
	})
	if err != nil {
		return nil, err
	}
	for li, loss := range s.LossRates {
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("loss %.0f%%", loss*100),
			Values: results[li*nt : (li+1)*nt],
		})
	}
	return t, nil
}

// Fig10 regenerates Figure 10: farm with Fanout 1, short and long
// tasks, loss 0/1/2%, TCP vs SCTP.
func Fig10(seed int64, numTasks int) ([]*Table, error) {
	return farmFigure(seed, numTasks, 1, "Figure 10: Bulk Processor Farm", core.SCTP, core.TCP)
}

// Fig11 regenerates Figure 11: the same farm with Fanout 10.
func Fig11(seed int64, numTasks int) ([]*Table, error) {
	return farmFigure(seed, numTasks, 10, "Figure 11: Bulk Processor Farm", core.SCTP, core.TCP)
}

// Fig12 regenerates Figure 12: the head-of-line ablation, SCTP with 10
// streams versus a single stream, fanout 10.
func Fig12(seed int64, numTasks int) ([]*Table, error) {
	return farmFigure(seed, numTasks, 10, "Figure 12: SCTP 10 streams vs 1 stream",
		core.SCTP, core.SCTPSingleStream)
}

// farmFigure runs one FarmSweep panel per task size (short and long)
// over loss 0/1/2%.
func farmFigure(seed int64, numTasks, fanout int, heading string, trs ...core.Transport) ([]*Table, error) {
	var out []*Table
	for _, sz := range []struct {
		label string
		size  int
	}{{"short (30K)", 30 << 10}, {"long (300K)", 300 << 10}} {
		sweep := &FarmSweep{
			Title:      fmt.Sprintf("%s, %s, fanout %d", heading, sz.label, fanout),
			Transports: trs,
			LossRates:  []float64{0, 0.01, 0.02},
			Config:     FarmConfig{NumTasks: numTasks, TaskSize: sz.size, Fanout: fanout},
			Opts:       core.Options{Seed: seed},
		}
		t, err := sweep.Run()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
