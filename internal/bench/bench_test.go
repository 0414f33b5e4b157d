package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestPingPongBasic(t *testing.T) {
	for _, tr := range []core.Transport{core.TCP, core.SCTP} {
		r, err := PingPong(core.Options{Transport: tr, Seed: 1}, 1024, 20, 5)
		if err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		if r.Throughput <= 0 || r.Elapsed <= 0 {
			t.Fatalf("%v: degenerate result %+v", tr, r)
		}
	}
}

func TestPingPongThroughputScalesWithSize(t *testing.T) {
	small, err := PingPong(core.Options{Transport: core.SCTP, Seed: 1}, 64, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	large, err := PingPong(core.Options{Transport: core.SCTP, Seed: 1}, 64<<10, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if large.Throughput < 10*small.Throughput {
		t.Fatalf("throughput should grow strongly with size: %f vs %f",
			small.Throughput, large.Throughput)
	}
}

// TestFig8Shape verifies the paper's headline no-loss shape: TCP wins
// at small message sizes, SCTP wins at large ones.
func TestFig8Shape(t *testing.T) {
	ratio := func(sz int) float64 {
		tcp, err := PingPong(core.Options{Transport: core.TCP, Seed: 1}, sz, 30, 5)
		if err != nil {
			t.Fatal(err)
		}
		sctp, err := PingPong(core.Options{Transport: core.SCTP, Seed: 1}, sz, 30, 5)
		if err != nil {
			t.Fatal(err)
		}
		return sctp.Throughput / tcp.Throughput
	}
	if r := ratio(1024); r >= 1 {
		t.Errorf("1 KiB: SCTP/TCP = %.3f, want < 1 (TCP wins small messages)", r)
	}
	if r := ratio(128 << 10); r <= 1 {
		t.Errorf("128 KiB: SCTP/TCP = %.3f, want > 1 (SCTP wins large messages)", r)
	}
}

// TestTable1Shape verifies the under-loss result: SCTP beats TCP for
// both short (eager) and long (rendezvous) ping-pong messages.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("loss sweep is slow")
	}
	for _, sz := range []int{30 << 10, 300 << 10} {
		tcp, err := PingPong(core.Options{Transport: core.TCP, Seed: 3, LossRate: 0.02}, sz, 40, 2)
		if err != nil {
			t.Fatal(err)
		}
		sctp, err := PingPong(core.Options{Transport: core.SCTP, Seed: 3, LossRate: 0.02}, sz, 40, 2)
		if err != nil {
			t.Fatal(err)
		}
		if sctp.Throughput <= tcp.Throughput {
			t.Errorf("size %d under 2%% loss: SCTP %.0f <= TCP %.0f B/s",
				sz, sctp.Throughput, tcp.Throughput)
		}
	}
}

func TestFarmCompletes(t *testing.T) {
	for _, tr := range []core.Transport{core.TCP, core.SCTP, core.SCTPSingleStream} {
		r, err := Farm(core.Options{Transport: tr, Seed: 1},
			FarmConfig{NumTasks: 100, TaskSize: 10 << 10})
		if err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		if r.TasksDone != 100 {
			t.Fatalf("%v: %d tasks done", tr, r.TasksDone)
		}
	}
}

func TestFarmFanout(t *testing.T) {
	r1, err := Farm(core.Options{Transport: core.SCTP, Seed: 1},
		FarmConfig{NumTasks: 200, TaskSize: 10 << 10, Fanout: 1})
	if err != nil {
		t.Fatal(err)
	}
	r10, err := Farm(core.Options{Transport: core.SCTP, Seed: 1},
		FarmConfig{NumTasks: 200, TaskSize: 10 << 10, Fanout: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r1.RunTime <= 0 || r10.RunTime <= 0 {
		t.Fatal("degenerate runtimes")
	}
}

// TestFarmLossShape verifies the Figure 10 direction: under loss the
// SCTP farm finishes far sooner than the TCP farm.
func TestFarmLossShape(t *testing.T) {
	if testing.Short() {
		t.Skip("loss sweep is slow")
	}
	cfg := FarmConfig{NumTasks: 800, TaskSize: 30 << 10, Fanout: 1}
	sctp, err := Farm(core.Options{Transport: core.SCTP, Seed: 2, LossRate: 0.02}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := Farm(core.Options{Transport: core.TCP, Seed: 2, LossRate: 0.02}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tcp.RunTime < 2*sctp.RunTime {
		t.Errorf("2%% loss farm: TCP %v vs SCTP %v; expected TCP much slower",
			tcp.RunTime, sctp.RunTime)
	}
}

// TestFig12Shape verifies the head-of-line ablation direction: with
// loss and fanout, multiple streams beat a single stream.
func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("loss sweep is slow")
	}
	cfg := FarmConfig{NumTasks: 400, TaskSize: 30 << 10, Fanout: 10}
	multi, err := Farm(core.Options{Transport: core.SCTP, Seed: 2, LossRate: 0.02}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Farm(core.Options{Transport: core.SCTPSingleStream, Seed: 2, LossRate: 0.02}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if single.RunTime <= multi.RunTime {
		t.Errorf("2%% loss fanout 10: single-stream %v <= multi-stream %v; expected HOL penalty",
			single.RunTime, multi.RunTime)
	}
}

func TestFarmDeterminism(t *testing.T) {
	cfg := FarmConfig{NumTasks: 100, TaskSize: 10 << 10}
	r1, err := Farm(core.Options{Transport: core.SCTP, Seed: 9, LossRate: 0.01}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Farm(core.Options{Transport: core.SCTP, Seed: 9, LossRate: 0.01}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.RunTime != r2.RunTime {
		t.Fatalf("nondeterministic farm: %v vs %v", r1.RunTime, r2.RunTime)
	}
}

func TestTableFormat(t *testing.T) {
	for _, c := range []struct {
		tab  *Table
		want []string
	}{
		{&Table{
			Title:   "test",
			Columns: []string{"a", "b"},
			Rows:    []Row{{Label: "r1", Values: []float64{1.5, 2e7}}},
			Notes:   []string{"a note"},
		}, []string{"test", "r1", "1.50", "2e+07", "a note"}},
		// An Exact table keeps every digit of a nanosecond value.
		{&Table{
			Title:   "exact",
			Columns: []string{"ns"},
			Rows:    []Row{{Label: "r1", Values: []float64{5202652676}}},
			Exact:   true,
		}, []string{" 5202652676\n"}},
	} {
		out := c.tab.Format()
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("formatted table missing %q:\n%s", want, out)
			}
		}
	}
}
