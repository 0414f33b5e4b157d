package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

// runCheck is -check: every workload twice at one seed must give the
// same virt_digest, and the two workloads ported from internal/bench
// must reproduce that harness's own virtual times exactly, so the
// benchmark cannot drift from the code the paper tables come from.
func runCheck(cfg config) error {
	bad := 0
	failf := func(format string, args ...any) {
		bad++
		fmt.Printf("FAIL: "+format+"\n", args...)
	}
	for i := range workloads {
		w := &workloads[i]
		if cfg.workload != "all" && cfg.workload != w.name {
			continue
		}
		seed := cfg.seedsFor(w)
		a, b := runRep(w, seed, 1, nil), runRep(w, seed, 1, nil)
		da, db := digest(a, nil), digest(b, nil)
		fmt.Printf("%-18s virt_digest %s\n", w.name, da)
		if da != db {
			failf("%s: second run at the same seed gave %s", w.name, db)
		}
		if a.failed+b.failed > 0 {
			failf("%s: %d operations failed: %v", w.name, a.failed+b.failed, append(a.failures, b.failures...))
		}
		for i, want := range legacyPins(w, seed.sim) {
			if i >= len(a.pins) || a.pins[i] != want {
				failf("%s: cell %d took %v of virtual time, internal/bench takes %v", w.name, i, a.pins[i], want)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("check: %d failures", bad)
	}
	fmt.Println("check: ok")
	return nil
}

// legacyPins runs the internal/bench originals of the ported programs
// and returns their virtual times in the benchmark's cell order.
func legacyPins(w *workload, simSeed int64) []time.Duration {
	var pins []time.Duration
	switch w.name {
	case "farm_fanout10":
		r, err := bench.Farm(farmOptions(simSeed), farmConfig)
		if err != nil {
			return []time.Duration{-1}
		}
		pins = append(pins, r.RunTime)
	case "fig8_sweep":
		for _, size := range bench.Fig8Sizes {
			for _, t := range fig8Transports {
				r, err := bench.PingPong(core.Options{Transport: t, Seed: simSeed}, size, fig8Iters, fig8Warmup)
				if err != nil {
					r.Elapsed = -1
				}
				pins = append(pins, r.Elapsed)
			}
		}
	}
	return pins
}

// compareFiles is -compare: two -out files from runs of the same code.
// It prints, per workload and end-to-end metric, both medians, their
// relative difference and the bound, and fails on any metric that the
// second run shows worse than the first by more than its bound, on any
// virtual-time column or digest that differs at all, and on any failed
// operation.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare needs two files, got %d", len(paths))
	}
	first, err := readResults(paths[0])
	if err != nil {
		return err
	}
	second, err := readResults(paths[1])
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-18s %-18s %16s %16s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		a, b := first[w.name], second[w.name]
		if a == nil && b == nil {
			continue // not part of either run
		}
		if a == nil || b == nil {
			fmt.Printf("%-18s missing from one of the files\n", w.name)
			bad++
			continue
		}
		for _, d := range endToEnd {
			x, y := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			diff := (y - x) / x
			verdict := ""
			switch {
			case d.clock == "virtual" && x != y:
				verdict = "  DIFFERS (virtual columns must be bit-identical)"
				bad++
			case diff > d.bound:
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-18s %-18s %16.6f %16.6f %+8.2f%% %6.0f%%%s\n", w.name, d.name, x, y, 100*diff, 100*d.bound, verdict)
		}
		if a.VirtDigest != b.VirtDigest {
			fmt.Printf("%-18s virt_digest differs: %s vs %s\n", w.name, a.VirtDigest, b.VirtDigest)
			bad++
		}
		if a.Failed+b.Failed > 0 {
			fmt.Printf("%-18s fail_share is not 0: %d and %d failed operations\n", w.name, a.Failed, b.Failed)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("compare: %d findings", bad)
	}
	fmt.Println("compare: every metric within its bound, virtual columns identical")
	return nil
}

// readResults loads an -out file; a later line for a workload replaces
// an earlier one.
func readResults(path string) (map[string]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]*result)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[r.Workload] = &r
	}
	return out, sc.Err()
}
