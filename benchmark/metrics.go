package main

// metricDef names one metric the harness emits. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// TestBenchmarkJSONAgrees keeps the two from drifting.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the parent's median by which it may worsen; end-to-end only
	clock  string  // wall, host, virtual
}

// endToEnd are the metrics a user of the system sees. Virtual-time
// metrics carry their own units (virt_s, virt_us): they are simulated
// seconds, exact for a given seed, and must never be read as host time.
// fail_share is printed with them but is carried by the result line's
// failed/attempted pair, because the contract wants metrics that are
// never 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "wall"},            // one set-up: cluster build, Init, buffers, up to the opening barrier
	{"wall_s", "s", "lower", 0.20, "wall"},             // timed region
	{"wall_ns_per_pkt", "ns", "lower", 0.20, "wall"},   // wall_s / simulated packets sent
	{"allocs_per_msg", "1/msg", "lower", 0.02, "host"}, // Mallocs delta / receives posted
	{"alloc_kb_per_msg", "KiB/msg", "lower", 0.02, "host"},
	{"peak_rss_mb", "MiB", "lower", 0.15, "host"},  // VmHWM when the run ends
	{"virt_s", "virt_s", "lower", 0.01, "virtual"}, // timed region, max over ranks: the paper's run time
	{"virt_lat_p50_us", "virt_us", "lower", 0.01, "virtual"},
	{"virt_lat_p99_us", "virt_us", "lower", 0.01, "virtual"}, // the RTO / head-of-line tail
	{"wire_overhead", "ratio", "lower", 0.01, "virtual"},     // bytes on the wire / payload bytes delivered
}

const failShare = "fail_share"

// perLayer are the metrics of single layers, printed by -trace 1 (and,
// for the drivers, at full length by -layers). D = isolated driver,
// T = count or span from the traced pass.
var perLayer = []metricDef{
	// sim (D)
	{name: "sim.after_fire_ns", unit: "ns", better: "lower"},
	{name: "sim.after_stop_ns", unit: "ns", better: "lower"},
	{name: "sim.after_far_ns", unit: "ns", better: "lower"},
	{name: "sim.switch_ns", unit: "ns", better: "lower"},
	{name: "sim.spawn_us", unit: "us", better: "lower"},
	{name: "sim.allocs_per_event", unit: "1/op", better: "lower"},
	// netsim (D, T)
	{name: "netsim.mesh_pkt_ns", unit: "ns", better: "lower"},
	{name: "netsim.mesh_pkt_allocs", unit: "1/op", better: "lower"},
	{name: "netsim.lossy_pkt_ns", unit: "ns", better: "lower"},
	{name: "netsim.fabric_hop_ns", unit: "ns", better: "lower"},
	{name: "netsim.fabric_hop_allocs", unit: "1/op", better: "lower"},
	{name: "netsim.topo_build_ms", unit: "ms", better: "lower"},
	{name: "netsim.pkts", unit: "count", better: "lower"},
	{name: "netsim.bytes", unit: "count", better: "lower"},
	{name: "netsim.lost", unit: "count", better: "lower"},
	{name: "netsim.queue_drops", unit: "count", better: "lower"},
	// wire (D)
	{name: "wire.pool_getput_ns", unit: "ns", better: "lower"},
	{name: "wire.bip_write_consume_ns", unit: "ns", better: "lower"},
	{name: "wire.crc32c_ns_per_kb", unit: "ns", better: "lower"},
	// transport (D)
	{name: "transport.poller_post_next_ns", unit: "ns", better: "lower"},
	// tcp (D, T)
	{name: "tcp.connect_us", unit: "us", better: "lower"},
	{name: "tcp.bulk_ns_per_seg", unit: "ns", better: "lower"},
	{name: "tcp.bulk_allocs_per_seg", unit: "1/op", better: "lower"},
	{name: "tcp.lossy_ns_per_seg", unit: "ns", better: "lower"},
	{name: "tcp.segs_sent", unit: "count", better: "lower"},
	{name: "tcp.acks_sent", unit: "count", better: "lower"},
	{name: "tcp.retransmits", unit: "count", better: "lower"},
	{name: "tcp.fast_retransmits", unit: "count", better: "lower"},
	{name: "tcp.rtos", unit: "count", better: "lower"},
	{name: "tcp.retx_share", unit: "ratio", better: "lower"},
	// sctp (D, T)
	{name: "sctp.connect_us", unit: "us", better: "lower"},
	{name: "sctp.bulk_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "sctp.bulk_allocs_per_pkt", unit: "1/op", better: "lower"},
	{name: "sctp.lossy_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "sctp.small_msg_ns", unit: "ns", better: "lower"},
	{name: "sctp.small_msg_allocs", unit: "1/op", better: "lower"},
	{name: "sctp.pkts_sent", unit: "count", better: "lower"},
	{name: "sctp.chunks_per_pkt", unit: "ratio", better: "higher"},
	{name: "sctp.sacks_sent", unit: "count", better: "lower"},
	{name: "sctp.retransmits", unit: "count", better: "lower"},
	{name: "sctp.fast_retransmits", unit: "count", better: "lower"},
	{name: "sctp.t3_expiries", unit: "count", better: "lower"},
	{name: "sctp.dup_chunks", unit: "count", better: "lower"},
	{name: "sctp.retx_share", unit: "ratio", better: "lower"},
	// rpi (D, T)
	{name: "rpi.envelope_codec_ns", unit: "ns", better: "lower"},
	{name: "rpi.framer_ns_per_msg", unit: "ns", better: "lower"},
	{name: "rpi.reasm_feed_ns", unit: "ns", better: "lower"},
	{name: "rpi.poll_passes", unit: "count", better: "lower"},
	{name: "rpi.poll_events", unit: "count", better: "lower"},
	{name: "rpi.events_per_pass", unit: "ratio", better: "higher"},
	{name: "rpi.poll_scan_fds", unit: "count", better: "lower"},
	{name: "rpi.send_calls", unit: "count", better: "lower"},
	{name: "rpi.advance_calls", unit: "count", better: "lower"},
	{name: "rpi.advance_idle_share", unit: "ratio", better: "lower"},
	{name: "rpi.advance_park_virt_share", unit: "ratio", better: "lower"},
	{name: "rpi.init_virt_ms", unit: "virt_ms", better: "lower"},
	{name: "rpi.init_wall_s", unit: "s", better: "lower"},
	// mpi (D, T)
	{name: "mpi.loop_sendrecv_ns", unit: "ns", better: "lower"},
	{name: "mpi.loop_sendrecv_allocs", unit: "1/op", better: "lower"},
	{name: "mpi.unexpected_match_ns", unit: "ns", better: "lower"},
	{name: "mpi.eager_sends", unit: "count", better: "lower"},
	{name: "mpi.rendezvous_sends", unit: "count", better: "lower"},
	{name: "mpi.unexpected_share", unit: "ratio", better: "lower"},
	// core (T)
	{name: "core.newcluster_s", unit: "s", better: "lower"},
	{name: "core.bringup_s", unit: "s", better: "lower"},
	// bench (D)
	{name: "bench.runcells_speedup", unit: "ratio", better: "higher"},
	// budget and trace (derived)
	{name: "budget.sim_share", unit: "ratio", better: "lower"},
	{name: "budget.netsim_share", unit: "ratio", better: "lower"},
	{name: "budget.transport_share", unit: "ratio", better: "lower"},
	{name: "budget.rpi_share", unit: "ratio", better: "lower"},
	{name: "budget.mpi_share", unit: "ratio", better: "lower"},
	{name: "budget.residual_share", unit: "ratio", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
}

// metric is one reported value. Min and Max are the spread over the
// timed repetitions where there is one.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: metric " + name + " is not declared in metrics.go")
}
