package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// result is everything one workload run reports.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	SimSeed    int64             `json:"sim_seed"`
	Reps       int               `json:"reps"`
	Samples    int               `json:"samples"` // latency samples per repetition
	Tail       float64           `json:"tail_percentile"`
	Metrics    map[string]metric `json:"metrics"`
	Layers     map[string]metric `json:"layers,omitempty"`
	FailShare  float64           `json:"fail_share"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	VirtDigest string            `json:"virt_digest"`
	WarmupS    float64           `json:"warmup_s"`
	SetupN     int               `json:"setup_samples"`
	RSSSource  string            `json:"peak_rss_source"`
	Host       hostInfo          `json:"host"`
	Failures   []string          `json:"failures,omitempty"`
	TraceFile  string            `json:"trace_file,omitempty"`

	spanTable []string
}

const (
	minSetupSamples = 25              // set-ups per run whose median is setup_s
	extraSetupCap   = 2 * time.Second // wall budget for set-up-only cycles beyond the repetitions
)

// measure runs one workload: an untimed warm-up repetition (fills the
// wire pools and sync.Pools, grows the heap), the timed repetitions,
// set-up-only cycles until setup_s has enough samples, and with
// cfg.trace a traced repetition plus the quick layer drivers.
func measure(w *workload, cfg config) *result {
	seed := cfg.seedsFor(w)
	res := &result{Workload: w.name, Seed: seed.payload, SimSeed: seed.sim, Host: readHost(),
		Metrics: make(map[string]metric)}

	t0 := time.Now()
	warm := runRep(w, seed, cfg.scale, nil)
	res.WarmupS = time.Since(t0).Seconds()
	res.fold(warm)

	var reps []*rep
	start := time.Now()
	wantMore := func(done int) bool {
		switch {
		case cfg.trace != 0:
			return done < 1 // the traced pass needs one untraced repetition to compare with
		case cfg.seconds > 0:
			return done < 2 || time.Since(start).Seconds() < cfg.seconds
		case cfg.reps > 0:
			return done < cfg.reps
		}
		return done < w.reps
	}
	for i := 0; wantMore(i); i++ {
		r := runRep(w, seed, cfg.scale, nil)
		res.fold(r)
		if !sameVirtual(warm, r) {
			res.fail("repetition %d differs from the warm-up repetition in a virtual-time column", i)
		}
		reps = append(reps, r)
	}
	res.Reps = len(reps)

	setups := make([]float64, 0, minSetupSamples)
	for _, r := range reps {
		setups = append(setups, r.setupWall.Seconds())
	}
	for extra := time.Now(); len(setups) < minSetupSamples && time.Since(extra) < extraSetupCap; {
		r := runRep(w, seed, -cfg.scale, nil)
		res.fold(r)
		setups = append(setups, r.setupWall.Seconds())
	}
	res.SetupN = len(setups)

	res.endToEnd(reps, setups)
	res.VirtDigest = digest(reps[0], nil)
	if cfg.trace != 0 {
		res.traced(w, seed, cfg, reps)
	}
	res.FailShare = float64(res.Failed) / float64(res.Attempted)
	return res
}

// seedsFor resolves the two seeds of a run of w.
func (cfg config) seedsFor(w *workload) seeds {
	s := seeds{sim: w.seed, payload: cfg.seed}
	if cfg.simSeed != 0 {
		s.sim = cfg.simSeed
	}
	return s
}

// runRep runs one repetition. It collects garbage first, so that every
// repetition starts from the same heap and none inherits the previous
// one's half-finished GC cycle.
func runRep(w *workload, seed seeds, scale int, tr *tracer) *rep {
	runtime.GC()
	r := &rep{}
	w.run(r, seed, scale, tr)
	return r
}

// fold adds a repetition's operation counts and failures to the result.
func (res *result) fold(r *rep) {
	res.Attempted += r.attempted
	res.Failed += r.failed
	for _, f := range r.failures {
		if len(res.Failures) < 8 {
			res.Failures = append(res.Failures, f)
		}
	}
}

func (res *result) fail(format string, args ...any) {
	res.Attempted++
	res.Failed++
	if len(res.Failures) < 8 {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
}

// sameVirtual reports whether two repetitions at one seed agree in
// every virtual-time column. They must: the simulation is deterministic.
func sameVirtual(a, b *rep) bool {
	return digest(a, nil) == digest(b, nil)
}

// endToEnd fills the end-to-end metrics: medians over the timed
// repetitions for the wall and host columns, the (identical) value of
// any repetition for the virtual ones.
func (res *result) endToEnd(reps []*rep, setups []float64) {
	col := func(f func(r *rep) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	set := func(name string, xs []float64) {
		lo, hi := minMax(xs)
		res.Metrics[name] = metric{Value: median(xs), Unit: unitOf(endToEnd, name), Min: lo, Max: hi}
	}
	set("setup_s", setups)
	set("wall_s", col(func(r *rep) float64 { return r.wall.Seconds() }))
	set("wall_ns_per_pkt", col(func(r *rep) float64 { return float64(r.wall) / float64(r.net.PacketsSent) }))
	set("allocs_per_msg", col(func(r *rep) float64 { return float64(r.mallocs) / float64(r.msgs()) }))
	set("alloc_kb_per_msg", col(func(r *rep) float64 { return float64(r.allocBytes) / 1024 / float64(r.msgs()) }))
	rss, src := peakRSS()
	res.RSSSource = src
	set("peak_rss_mb", []float64{rss})

	r := reps[0]
	lat := append([]int64(nil), r.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.Samples = len(lat)
	res.Tail = highestTail(len(lat))
	p50, _ := percentile(lat, 50)
	p99, ok := percentile(lat, 99)
	if !ok {
		res.fail("only %d latency samples: p99 needs %d beyond it", len(lat), tailMinBeyond)
	}
	set("virt_s", []float64{r.virt.Seconds()})
	set("virt_lat_p50_us", []float64{float64(p50) / 1e3})
	set("virt_lat_p99_us", []float64{float64(p99) / 1e3})
	set("wire_overhead", []float64{float64(r.net.BytesSent) / float64(r.payload)})
}

// digest is SHA-256 over every virtual column of a repetition (and the
// traced counts when there are any), so that bit-identity between two
// runs is one string compare.
func digest(r *rep, traced map[string]metric) string {
	h := sha256.New()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(int64(r.virt))
	put(int64(r.initVirt))
	put(r.net.PacketsSent)
	put(r.net.BytesSent)
	put(r.net.PacketsLost)
	put(r.net.PacketsQueued)
	put(r.msgs())
	put(r.payload)
	put(r.procStats.EagerSends)
	put(r.procStats.RendezvousSends)
	put(r.procStats.UnexpectedMsgs)
	for _, p := range r.pins {
		put(int64(p))
	}
	for _, v := range r.lat {
		put(v)
	}
	names := make([]string, 0, len(traced))
	for name, m := range traced {
		if m.Unit == "count" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		io.WriteString(h, name)
		put(int64(traced[name].Value))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSS returns the process's resident-set high-water mark in MiB.
func peakRSS() (float64, string) {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil && len(fields) == 2 && fields[1] == "kB" {
					return kb / 1024, "VmHWM"
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapSys) / (1 << 20), "HeapSys"
}

func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// --- output -------------------------------------------------------------

func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d simseed=%d reps=%d samples=%d (tail p%g has >= %d samples beyond it) ==\n",
		res.Workload, res.Seed, res.SimSeed, res.Reps, res.Samples, res.Tail, tailMinBeyond)
	fmt.Fprintf(w, "   %s gomaxprocs=%d nproc=%d commit=%s calib_spin_ms=%.3f warmup_s=%.3f setup_samples=%d peak_rss=%s\n",
		res.Host.GoVersion, res.Host.GOMAXPROCS, res.Host.NProc, res.Host.Commit,
		res.Host.CalibSpinMS, res.WarmupS, res.SetupN, res.RSSSource)
	for _, d := range endToEnd {
		m := res.Metrics[d.name]
		fmt.Fprintf(w, "%-26s %16.6f %-8s", d.name, m.Value, m.Unit)
		if m.Min != m.Max {
			fmt.Fprintf(w, "  [%.6f .. %.6f]", m.Min, m.Max)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-26s %16.6f %-8s  (%d failed of %d)\n", failShare, res.FailShare, "ratio", res.Failed, res.Attempted)
	fmt.Fprintf(w, "%-26s %s\n", "virt_digest", res.VirtDigest)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}
	if res.Layers == nil {
		return
	}
	fmt.Fprintf(w, "-- per-layer (traced pass, spans in %s) --\n", res.TraceFile)
	printLayerMetrics(w, res.Layers)
	for _, line := range res.spanTable {
		fmt.Fprintln(w, line)
	}
}

func printLayerMetrics(w io.Writer, ms map[string]metric) {
	for _, d := range perLayer {
		if m, ok := ms[d.name]; ok {
			fmt.Fprintf(w, "%-32s %18.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
}

func (res *result) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
