package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// testScale shrinks every workload to a few dozen operations.
const testScale = 50

func TestWorkloadsSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		r := runRep(w, seeds{sim: w.seed, payload: 7}, testScale, nil)
		if r.failed != 0 || r.attempted < 10 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, r.failed, r.attempted, r.failures)
		}
		if r.wall <= 0 || r.virt <= 0 || r.net.PacketsSent == 0 || r.msgs() == 0 || r.payload == 0 || len(r.lat) == 0 {
			t.Errorf("%s: empty measurement: %+v", w.name, *r)
		}
		if again := runRep(w, seeds{sim: w.seed, payload: 8}, testScale, nil); digest(again, nil) != digest(r, nil) {
			t.Errorf("%s: virt_digest depends on the payload seed or is not reproducible", w.name)
		}
		if setup := runRep(w, seeds{sim: w.seed}, -testScale, nil); setup.failed != 0 || setup.setupWall <= 0 {
			t.Errorf("%s: set-up-only cycle failed: %v", w.name, setup.failures)
		}
	}
}

// A corrupted byte anywhere in a body must fail verification.
func TestPatternsDetectCorruption(t *testing.T) {
	for _, size := range []int{1, 16, 64, 30 << 10} {
		p := newPatterns(5, 3, size)
		buf := make([]byte, size)
		p.stamp(buf, 5, 3, 9, 12)
		restamp(buf, 14)
		if !p.verify(buf, 5, 3, 9, 14) {
			t.Fatalf("size %d: a stamped message does not verify", size)
		}
		if size >= headerSize && p.verify(buf, 5, 3, 9, 15) {
			t.Errorf("size %d: message verifies for the wrong iteration", size)
		}
		for _, at := range []int{0, size / 2, size - 1} {
			buf[at] ^= 0x40
			if p.verify(buf, 5, 3, 9, 14) {
				t.Errorf("size %d: flipped bit at %d goes unnoticed", size, at)
			}
			buf[at] ^= 0x40
		}
	}
}

func TestLayerDriversSmoke(t *testing.T) {
	ds := runLayers(smokeDrivers)
	if ds.err != nil {
		t.Fatal(ds.err)
	}
	for name, m := range ds.metrics {
		if m.Value < 0 || (m.Value == 0 && m.Unit != "1/op") {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []jsonMetric `json:"end_to_end"`
	PerLayer  []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Every workload and metric named in BENCHMARK.json is emitted by the
// harness with the same unit, direction and bound, and the harness
// emits nothing else (fail_share apart, which the result line carries
// as failed/attempted because a listed metric may never be 0).
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / harness %q (name or why differs)", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, listed []jsonMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			d := defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, metrics.go {%s %s %s %v}", kind, i, m, d.name, d.unit, d.better, d.bound)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)

	// One traced run of the cheapest workload must emit exactly the
	// declared names on both lists.
	traceDir = t.TempDir()
	res := measure(findWorkload("pp_small_clean"), config{trace: 1, scale: 10, drivers: smokeDrivers})
	if res.Failed != 0 {
		t.Fatalf("traced run failed: %v", res.Failures)
	}
	emitted := func(kind string, got map[string]metric, defs []metricDef) {
		var have, want []string
		for name := range got {
			have = append(have, name)
		}
		for _, d := range defs {
			want = append(want, d.name)
			if got[d.name].Unit != d.unit {
				t.Errorf("%s %s: emitted unit %q, declared %q", kind, d.name, got[d.name].Unit, d.unit)
			}
		}
		sort.Strings(have)
		sort.Strings(want)
		if len(have) != len(want) {
			t.Errorf("%s: emitted %d metrics, declared %d\n have %v\n want %v", kind, len(have), len(want), have, want)
			return
		}
		for i := range have {
			if have[i] != want[i] {
				t.Errorf("%s: emitted %q where %q is declared", kind, have[i], want[i])
			}
		}
	}
	emitted("end_to_end", res.Metrics, endToEnd)
	emitted("per_layer", res.Layers, perLayer)
	if sum := budgetSum(res.Layers); sum < 0.999999 || sum > 1.000001 {
		t.Errorf("budget shares and residual sum to %v, want 1", sum)
	}
	if _, err := os.Stat(res.TraceFile); err != nil {
		t.Errorf("trace file: %v", err)
	}
}

func budgetSum(layers map[string]metric) float64 {
	sum := 0.0
	for _, name := range []string{"sim", "netsim", "transport", "rpi", "mpi", "residual"} {
		sum += layers["budget."+name+"_share"].Value
	}
	return sum
}

// A tail percentile is reportable only with at least ten samples beyond it.
func TestPercentileTailRule(t *testing.T) {
	asc := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	if v, ok := percentile(asc(1000), 99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %d, %v; want 990 with exactly 10 beyond", v, ok)
	}
	if _, ok := percentile(asc(999), 99); ok {
		t.Error("p99 of 999 samples has only 9 beyond it and must be refused")
	}
	if v, ok := percentile(asc(4096), 50); v != 2048 || !ok {
		t.Errorf("p50 of 1..4096 = %d, %v", v, ok)
	}
	for n, want := range map[int]float64{50: 0, 100: 90, 999: 90, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := highestTail(n); got != want {
			t.Errorf("highestTail(%d) = %v, want %v", n, got, want)
		}
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// What the harness itself does inside a timed region (stamping and
// verifying bodies, counting, latency samples, the barrier marks) must
// not allocate, or allocs_per_msg would measure the benchmark.
func TestHarnessAddsNoAllocations(t *testing.T) {
	const size = 30 << 10
	p := newPatterns(1, 2, size)
	buf := make([]byte, size)
	p.stamp(buf, 1, 2, 0, 0)
	c := &cell{net: netsim.NewNetwork(sim.New(1))}
	rc := &rankCtx{cell: c, lat: make([]int64, 0, 4096)}
	var m wallMark
	iter := 0
	allocs := testing.AllocsPerRun(1000, func() {
		restamp(buf, iter)
		rc.check(p.verify(buf, 1, 2, 0, iter), size)
		rc.sample(12345)
		c.mark(&m)
		iter += 2
	})
	if allocs != 0 {
		t.Errorf("harness allocates %v times per operation inside the timed region", allocs)
	}
	if rc.bad != 0 {
		t.Errorf("%d verifications failed", rc.bad)
	}
}
