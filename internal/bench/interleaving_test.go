package bench

import "testing"

// TestInterleavingLatencyWin pins the headline property of RFC 8260
// interleaving: with a 4 MiB transfer in flight on the association,
// the p99 one-way latency of 64-byte probes drops at least 5× when
// I-DATA and the priority scheduler replace FIFO DATA queueing. Both
// modes run the identical workload at the identical seed, so the only
// variable is chunk scheduling. The percentiles are also pinned to
// their golden virtual-time values.
func TestInterleavingLatencyWin(t *testing.T) {
	legacy, err := InterleavingLatency(false)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := InterleavingLatency(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got           InterleavingPoint
		p50, p99, max int64
	}{
		{legacy, 5396269, 8760110, 8760110},
		{inter, 500995, 826528, 826528},
	} {
		if c.got.P50NS != c.p50 || c.got.P99NS != c.p99 || c.got.MaxNS != c.max {
			t.Errorf("%s: p50/p99/max %d/%d/%d ns, golden %d/%d/%d ns", c.got.Mode,
				c.got.P50NS, c.got.P99NS, c.got.MaxNS, c.p50, c.p99, c.max)
		}
	}
	t.Logf("legacy:      p50 %9d ns  p99 %9d ns  max %9d ns",
		legacy.P50NS, legacy.P99NS, legacy.MaxNS)
	t.Logf("interleaved: p50 %9d ns  p99 %9d ns  max %9d ns",
		inter.P50NS, inter.P99NS, inter.MaxNS)
	if legacy.P50NS <= 0 || inter.P50NS <= 0 {
		t.Fatalf("non-positive latency: legacy p50 %d, interleaved p50 %d",
			legacy.P50NS, inter.P50NS)
	}
	if inter.P99NS*5 > legacy.P99NS {
		t.Fatalf("interleaving p99 win below 5x: legacy %d ns vs interleaved %d ns (%.1fx)",
			legacy.P99NS, inter.P99NS, float64(legacy.P99NS)/float64(inter.P99NS))
	}
}

// TestInterleavingDeterminism: the experiment is pure virtual time, so
// a rerun must reproduce the percentiles bit for bit.
func TestInterleavingDeterminism(t *testing.T) {
	a, err := InterleavingLatency(true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := InterleavingLatency(true)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("interleaved run not reproducible:\n%+v\nvs\n%+v", a, b)
	}
}
