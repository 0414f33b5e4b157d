package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// goldenTraceHash is the SHA-256 of the full packet trace — every send,
// receive and drop with its virtual timestamp — of the lossy SCTP
// ping-pong below. Any change to event ordering, RNG consumption, loss
// placement or virtual timing shows up here as a different hash, so
// this test pins the simulator's determinism across optimizations.
// Recaptured when the RPI envelope grew its session-recovery fields
// (epoch/seq/ack), which changed every packet's payload length.
const goldenTraceHash = "266e379dc157fedfa4c31a24993a30505594a583a47d707f265bb4293cb90fbb"

func traceHash(t *testing.T) string {
	t.Helper()
	opts := core.Options{Transport: core.SCTP, Seed: 7, LossRate: 0.02, Procs: 2}
	c, err := core.NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	c.Net.Trace = func(ev string, pkt *netsim.Packet) {
		fmt.Fprintf(h, "%d|%s|%d|%d|%d|%d\n",
			c.Kernel.Now(), ev, pkt.Src, pkt.Dst, pkt.Proto, len(pkt.Payload))
	}
	msgSize, iters := 30<<10, 30
	c.Start(func(pr *mpi.Process, comm *mpi.Comm) error {
		msg := make([]byte, msgSize)
		buf := make([]byte, msgSize)
		peer := 1 - comm.Rank()
		for i := 0; i < iters; i++ {
			if err := pingOnce(comm, peer, msg, buf); err != nil {
				return err
			}
		}
		return nil
	})
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTraceHashGolden verifies the virtual-time packet trace of a lossy
// SCTP ping-pong is byte-identical to the pre-optimization capture.
func TestTraceHashGolden(t *testing.T) {
	if got := traceHash(t); got != goldenTraceHash {
		t.Fatalf("packet trace diverged from pre-optimization golden capture:\n got %s\nwant %s",
			got, goldenTraceHash)
	}
}

// TestParallelSweepIdentical runs the same sweeps serially and on a
// 4-worker pool and requires bit-identical tables: parallelism must be
// invisible in the results.
func TestParallelSweepIdentical(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)

	runBoth := func(name string, f func() (*Table, error)) {
		SetParallelism(1)
		serial, err := f()
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		SetParallelism(4)
		parallel, err := f()
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: serial and parallel tables differ:\n%s\nvs\n%s",
				name, serial.Format(), parallel.Format())
		}
	}

	runBoth("fig8", func() (*Table, error) { return Fig8Transports(1, 5, nil) })
	runBoth("farm", func() (*Table, error) {
		sweep := &FarmSweep{
			Title:      "parallel identity",
			Transports: []core.Transport{core.SCTP, core.TCP},
			LossRates:  []float64{0, 0.01},
			Config:     FarmConfig{NumTasks: 40, TaskSize: 8 << 10},
			Opts:       core.Options{Seed: 5},
		}
		return sweep.Run()
	})
	// The ablation rows share one captured core.Options across their
	// seeds; a cheap subset covers each run constructor.
	runBoth("ablations", func() (*Table, error) {
		var rows []ablation
		for _, a := range ablations() {
			switch a.group {
			case "nagle", "sack delay", "race fix", "cmt":
				rows = append(rows, a)
			}
		}
		rows = append(rows, ablation{"farm", "small farm", farmRun(
			core.Options{Transport: core.SCTP, LossRate: 0.01}, FarmConfig{NumTasks: 20, TaskSize: 8 << 10})})
		return ablationTable(1, rows)
	})
}
