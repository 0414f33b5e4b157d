// Command benchmark is the repository benchmark: six workloads measured
// on two clocks (virtual time, which is the paper's result and exact for
// a seed, and wall time, which is what a simulation costs the host),
// isolated per-layer drivers, and a traced pass. See README.md here and
// BENCHMARK.json at the repository root.
//
//	go run ./benchmark                          all six workloads, end-to-end metrics
//	go run ./benchmark -workload fig8_sweep     one workload
//	go run ./benchmark -trace 1                 traced pass: per-layer counts, spans, budget
//	go run ./benchmark -layers                  isolated layer drivers at full length
//	go run ./benchmark -check                   determinism and legacy-harness pins
//
// The last line of standard output of a single-workload run is one JSON
// object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

type config struct {
	workload string
	seed     int64
	simSeed  int64
	reps     int
	seconds  float64
	trace    int
	layers   bool
	check    bool
	out      string
	compare  bool

	// Not flags: the tests shrink the workloads and the driver pass.
	scale   int
	drivers driverMode
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 0, "seed of the generated message payloads")
	flag.Int64Var(&cfg.simSeed, "simseed", 0, "override the workload's own simulation seed (loss pattern); 0 keeps it")
	flag.IntVar(&cfg.reps, "reps", 0, "timed repetitions; 0 selects the workload's default (ignored when -seconds > 0)")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "keep starting timed repetitions until this much time has been measured")
	flag.IntVar(&cfg.trace, "trace", 0, "1 = traced pass: per-layer metrics, spans to benchmark/out/")
	flag.BoolVar(&cfg.layers, "layers", false, "run the isolated layer drivers at full length and exit")
	flag.BoolVar(&cfg.check, "check", false, "run every workload twice at one seed, compare digests, and pin to internal/bench")
	flag.StringVar(&cfg.out, "out", "", "append each workload's result as one JSON line to this file")
	flag.BoolVar(&cfg.compare, "compare", false, "compare two -out files given as arguments against the end-to-end bounds")
	flag.Parse()
	cfg.scale, cfg.drivers = 1, quickDrivers
	pinProcs()

	var err error
	switch {
	case cfg.compare:
		err = compareFiles(flag.Args())
	case cfg.layers:
		err = printLayers(runLayers(fullDrivers))
	case cfg.check:
		err = runCheck(cfg)
	case cfg.workload == "all":
		err = runAll(cfg)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// pinProcs runs the benchmark on one P unless the GOMAXPROCS environment
// variable says otherwise. A simulation is one logical thread: the kernel
// hands control from goroutine to goroutine, and with a second P idle
// every hand-off wakes it to spin and steal. On the 2-core reference box
// that costs 1.45x in wall time and, worse, is bistable: the same binary
// settles for minutes at a time at 2.8 or at 4.1 us per packet, a shift
// no regression bound can absorb. One P is both what a user should run a
// single simulation with and the only setting steady enough to measure.
// GOMAXPROCS=2 go run ./benchmark measures the other configuration.
func pinProcs() {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
}

// runAll re-executes this binary once per workload, so that each
// workload's peak_rss_mb is the high-water mark of its own process.
func runAll(cfg config) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-simseed", strconv.FormatInt(cfg.simSeed, 10),
			"-reps", strconv.Itoa(cfg.reps), "-seconds", fmt.Sprint(cfg.seconds),
			"-trace", strconv.Itoa(cfg.trace), "-out", cfg.out}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed", failed, len(workloads))
	}
	return nil
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runOne(cfg config) error {
	w := findWorkload(cfg.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := measure(w, cfg)
	res.print(os.Stdout)
	if cfg.out != "" {
		if err := res.appendTo(cfg.out); err != nil {
			return err
		}
	}
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics}
	if cfg.trace != 0 {
		line.Metrics = res.Layers
	}
	for name, m := range line.Metrics {
		m.Min, m.Max = 0, 0
		line.Metrics[name] = m
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// hostInfo is recorded beside the metrics so that rows taken on
// different machines can be told apart and normalised.
type hostInfo struct {
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	Commit      string  `json:"commit"`
	CalibSpinMS float64 `json:"calib_spin_ms"`
}

func readHost() hostInfo {
	return hostInfo{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		Commit:      vcsRevision(),
		CalibSpinMS: calibSpin(),
	}
}

var spinSink uint64

// calibSpin times a fixed arithmetic loop (ROADMAP 1a): the same work
// on every machine, so wall metrics from different hosts can be scaled.
func calibSpin() float64 {
	best := time.Duration(1 << 62)
	for try := 0; try < 3; try++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if d := time.Since(t0); d < best {
			best = d
		}
		spinSink += x
	}
	return float64(best) / 1e6
}
