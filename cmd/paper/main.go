// Command paper produces every virtual-time table the repository
// publishes: the paper's own (fig8, table1, fig9, fig10, fig11, fig12),
// its design claims at scale (rankscale, collectives, mcast, incast,
// interleave) and the design-choice ablations (ablations).
//
//	paper -exp NAME   # one producer; an unknown NAME exits 2
//	paper -exp all    # every producer, in that order
//
// -quick shrinks iteration/task counts and drops the cells above 128
// ranks for a fast pass; the defaults match the paper's parameters
// where tractable.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/bench/nas"
	"repro/internal/core"
)

// config is what the flags decide for every experiment.
type config struct {
	seed       int64
	quick      bool
	iters      int
	farmTasks  int
	class      nas.Class
	transports []core.Transport
}

// quickMaxRanks is the largest world -quick keeps on a rank axis.
const quickMaxRanks = 128

// ranks returns axis, without the cells above quickMaxRanks under -quick.
func (c config) ranks(axis []int) []int {
	if !c.quick {
		return axis
	}
	return slices.DeleteFunc(slices.Clone(axis), func(n int) bool { return n > quickMaxRanks })
}

type experiment struct {
	name string
	run  func(c config) ([]*bench.Table, error)
}

// experiments is every table producer, in the order -exp all runs them.
var experiments = []experiment{
	{"fig8", func(c config) ([]*bench.Table, error) {
		return one(bench.Fig8Transports(c.seed, c.iters, c.transports))
	}},
	{"table1", func(c config) ([]*bench.Table, error) { return one(bench.Table1(c.seed, c.iters)) }},
	{"fig9", fig9},
	{"fig10", func(c config) ([]*bench.Table, error) { return bench.Fig10(c.seed, c.farmTasks) }},
	{"fig11", func(c config) ([]*bench.Table, error) { return bench.Fig11(c.seed, c.farmTasks) }},
	{"fig12", func(c config) ([]*bench.Table, error) { return bench.Fig12(c.seed, c.farmTasks) }},
	{"rankscale", func(c config) ([]*bench.Table, error) {
		return one(bench.RankScalingTable(c.ranks(bench.RankScalingRanks)))
	}},
	{"collectives", func(c config) ([]*bench.Table, error) {
		return one(bench.CollectiveTable(c.ranks(bench.CollectiveRanks)))
	}},
	{"mcast", func(c config) ([]*bench.Table, error) {
		return one(bench.MulticastTable(c.ranks(bench.MulticastRanks)))
	}},
	{"incast", func(config) ([]*bench.Table, error) { return one(bench.IncastTable()) }},
	{"interleave", func(config) ([]*bench.Table, error) { return one(bench.InterleavingTable()) }},
	{"ablations", func(c config) ([]*bench.Table, error) { return one(bench.Ablations(c.seed)) }},
}

func one(t *bench.Table, err error) ([]*bench.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*bench.Table{t}, nil
}

func fig9(c config) ([]*bench.Table, error) {
	rows, err := nas.Fig9(c.seed, c.class)
	if err != nil {
		return nil, err
	}
	t := &bench.Table{
		Title:   fmt.Sprintf("Figure 9: NAS-like benchmarks, class %c, 8 processes (Mop/s total)", c.class),
		Columns: []string{"LAM_SCTP", "LAM_TCP", "SCTP/TCP"},
		Notes:   []string{"paper: comparable overall on class B; TCP slightly ahead on MG and BT"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, bench.Row{
			Label:  r.Kernel,
			Values: []float64{r.SCTP, r.TCP, r.SCTP / r.TCP},
		})
	}
	return []*bench.Table{t}, nil
}

func names() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

// lookup resolves an -exp name: one experiment, or all of them.
func lookup(name string) ([]experiment, error) {
	if name == "all" {
		return experiments, nil
	}
	for _, e := range experiments {
		if e.name == name {
			return []experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("paper: unknown experiment %q (have %s|all)", name, strings.Join(names(), "|"))
}

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names(), "|")+"|all")
	seed := flag.Int64("seed", 1, "simulation seed")
	quick := flag.Bool("quick", false, "smaller iteration/task counts, no cells above 128 ranks")
	class := flag.String("class", "B", "NAS class for fig9: S|W|A|B")
	tasks := flag.Int("tasks", 0, "farm task count override (paper: 10000)")
	rpis := flag.String("rpi", "tcp,sctp",
		"comma-separated RPI backends for fig8 (tcp|sctp|sctp1|sctp1to1)")
	parallel := flag.Int("parallel", 1,
		"concurrent sweep cells; 0 selects GOMAXPROCS (results are identical at any setting)")
	flag.Parse()
	bench.SetParallelism(*parallel)

	selected, err := lookup(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	c := config{
		seed:      *seed,
		quick:     *quick,
		iters:     100,
		farmTasks: 10000,
		class:     nas.Class(strings.ToUpper(*class)[0]),
	}
	for _, name := range strings.Split(*rpis, ",") {
		tr, err := core.ParseTransport(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		c.transports = append(c.transports, tr)
	}
	if *quick {
		c.iters = 30
		c.farmTasks = 500
	}
	if *tasks > 0 {
		c.farmTasks = *tasks
	}

	for _, e := range selected {
		start := time.Now()
		tables, err := e.run(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Print(t.Format())
			fmt.Println()
		}
		fmt.Printf("(%s completed in %v wall time)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
}
