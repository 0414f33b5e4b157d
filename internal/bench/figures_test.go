package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestFarmSweepTable(t *testing.T) {
	sweep := &FarmSweep{
		Title:      "test sweep",
		Transports: []core.Transport{core.SCTP, core.TCP},
		LossRates:  []float64{0, 0.01},
		Config:     FarmConfig{NumTasks: 50, TaskSize: 8 << 10},
		Opts:       core.Options{Seed: 5},
	}
	tab, err := sweep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || len(tab.Columns) != 2 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
	for _, r := range tab.Rows {
		for i, v := range r.Values {
			if v <= 0 {
				t.Errorf("row %q col %d: nonpositive runtime %v", r.Label, i, v)
			}
		}
	}
	out := tab.Format()
	if !strings.Contains(out, "loss 1%") {
		t.Errorf("formatted sweep missing loss row:\n%s", out)
	}
}

func TestFig8SizesSane(t *testing.T) {
	last := 0
	for _, sz := range Fig8Sizes {
		if sz <= last {
			t.Fatalf("Fig8Sizes not strictly increasing at %d", sz)
		}
		last = sz
	}
	// The sweep must straddle the paper's 22 KiB crossover and the
	// 64 KiB eager limit.
	var below, between, above bool
	for _, sz := range Fig8Sizes {
		switch {
		case sz < 22<<10:
			below = true
		case sz <= 64<<10:
			between = true
		default:
			above = true
		}
	}
	if !below || !between || !above {
		t.Fatal("Fig8Sizes must cover below/around/above the crossover and eager limit")
	}
}

func TestFig8Generator(t *testing.T) {
	if testing.Short() {
		t.Skip("full size sweep")
	}
	tab, err := Fig8Transports(1, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(Fig8Sizes) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Ratio column must increase from well below 1 to at least ~1.
	first := tab.Rows[0].Values[2]
	lastv := tab.Rows[len(tab.Rows)-1].Values[2]
	if first >= 1 {
		t.Errorf("smallest size ratio %.3f, want < 1 (TCP wins small)", first)
	}
	if lastv < 0.98 {
		t.Errorf("largest size ratio %.3f, want ≈>1 (SCTP wins large)", lastv)
	}
}

func TestFigureGenerators(t *testing.T) {
	if testing.Short() {
		t.Skip("farm sweeps")
	}
	for name, gen := range map[string]func(int64, int) ([]*Table, error){
		"fig10": Fig10, "fig11": Fig11, "fig12": Fig12,
	} {
		tables, err := gen(5, 60)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tables) != 2 {
			t.Fatalf("%s: %d tables", name, len(tables))
		}
		for _, tab := range tables {
			if len(tab.Rows) != 3 {
				t.Fatalf("%s: %d rows", name, len(tab.Rows))
			}
		}
	}
}
