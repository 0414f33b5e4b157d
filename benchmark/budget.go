package main

import (
	"fmt"
	"strings"
)

// traceDir is where the traced pass writes its spans, relative to the
// repository root the benchmark is run from. The tests point it at a
// temporary directory.
var traceDir = "benchmark/out"

// traced runs the traced pass of one workload: one repetition with the
// probes and the RPI wrapper armed, the quick layer drivers, and from
// both the per-layer metrics, the spans and the wall-time budget.
// End-to-end metrics always come from the untraced repetitions.
func (res *result) traced(w *workload, seed seeds, cfg config, untraced []*rep) {
	tr := newTracer()
	r := runRep(w, seed, cfg.scale, tr)
	res.fold(r)
	if !sameVirtual(untraced[0], r) {
		res.fail("the traced repetition differs from the untraced one in a virtual-time column")
	}
	path, err := tr.write(traceDir, w.name)
	if err != nil {
		res.fail("%v", err)
	}
	res.TraceFile = path

	ds := runLayers(cfg.drivers)
	if ds.err != nil {
		res.fail("layer driver: %v", ds.err)
	}
	L := ds.metrics
	set := func(name string, v float64) { L[name] = metric{Value: v, Unit: unitOf(perLayer, name)} }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	// Counts (T), all timed-region deltas.
	d := tr.delta
	set("netsim.pkts", float64(r.net.PacketsSent))
	set("netsim.bytes", float64(r.net.BytesSent))
	set("netsim.lost", float64(r.net.PacketsLost))
	set("netsim.queue_drops", float64(r.net.PacketsQueued))
	for _, name := range []string{
		"tcp.segs_sent", "tcp.acks_sent", "tcp.retransmits", "tcp.fast_retransmits", "tcp.rtos",
		"sctp.pkts_sent", "sctp.sacks_sent", "sctp.retransmits", "sctp.fast_retransmits", "sctp.t3_expiries", "sctp.dup_chunks",
		"rpi.poll_passes", "rpi.poll_events", "rpi.poll_scan_fds",
	} {
		set(name, float64(d[name]))
	}
	set("tcp.retx_share", ratio(d["tcp.retransmits"], d["tcp.segs_sent"]))
	set("sctp.chunks_per_pkt", ratio(d["sctp.chunks_sent"], d["sctp.pkts_sent"]))
	set("sctp.retx_share", ratio(d["sctp.retransmits"], d["sctp.chunks_sent"]))
	set("rpi.events_per_pass", ratio(d["rpi.poll_events"], d["rpi.poll_passes"]))
	sends, advances := tr.liveCalls[nameSend], tr.liveCalls[nameAdvance]
	set("rpi.send_calls", float64(sends))
	set("rpi.advance_calls", float64(advances))
	set("rpi.advance_idle_share", ratio(tr.advanceIdle, advances))
	set("rpi.advance_park_virt_share", ratio(tr.advanceVirt, tr.opVirt))
	set("rpi.init_virt_ms", float64(tr.initVirt)/1e6)
	set("rpi.init_wall_s", float64(tr.initWall)/1e9)
	set("mpi.eager_sends", float64(r.procStats.EagerSends))
	set("mpi.rendezvous_sends", float64(r.procStats.RendezvousSends))
	set("mpi.unexpected_share", ratio(r.procStats.UnexpectedMsgs, r.msgs()))
	set("core.newcluster_s", r.newClusterWall.Seconds())
	set("core.bringup_s", r.setupWall.Seconds())
	set("trace.spans", float64(len(tr.spans)))
	base := res.Metrics["wall_s"].Value
	set("trace.overhead_share", (r.wall.Seconds()-base)/base)

	res.budget(w, L, ds.aux, r)
	res.Layers = L
	res.VirtDigest = digest(untraced[0], L)
	res.spanTable = tr.table()
}

// budget splits the untraced wall_s over the layers: driver ns/op x
// traced count / wall_s. Drivers nest, so a layer is charged its
// driver's cost minus what the drivers beneath it already explain at
// the counts that driver itself generated:
//
//	sim       one After+fire per packet-hop; one After+fire and one hand-off per cost-model
//	          sleep (every rpi send, delivered message and poll pass charges virtual CPU
//	          with Proc.Sleep); one hand-off per blocking Advance
//	netsim    packet-hops x (netsim driver - one sim event)
//	transport packets x (transport driver per packet - one netsim packet)
//	rpi       sends x envelope codec + poll events x poller + per message the stream framer
//	          (TCP's share of the messages) or the 30 KiB reassembly (SCTP's, unless bodies are small)
//	mpi       messages x the loopback send/recv driver
//
// Whatever the drivers do not explain (timers the transports arm, the
// cost model's sleeps, GC pressure of the full stack, the harness's own
// checks) is the residual. It is stated, never hidden, and may be
// negative when a driver's steady state is costlier than the workload's.
func (res *result) budget(w *workload, L map[string]metric, aux map[string]float64, r *rep) {
	v := func(name string) float64 { return L[name].Value }
	wallNS := res.Metrics["wall_s"].Value * 1e9
	pkts := v("netsim.pkts")

	event := v("sim.after_fire_ns")
	hop, hops := v("netsim.mesh_pkt_ns"), 1.0
	switch {
	case w.fabricHops > 0:
		hop, hops = v("netsim.fabric_hop_ns"), w.fabricHops
	case w.lossy:
		hop = v("netsim.lossy_pkt_ns")
	}
	sleeps := v("rpi.send_calls") + float64(r.msgs()) + v("rpi.poll_passes")
	sim := (pkts*hops+sleeps)*event + (sleeps+v("rpi.advance_calls"))*v("sim.switch_ns")
	netsim := pkts * hops * (hop - event)

	sctpPkt, tcpSeg := v("sctp.bulk_ns_per_pkt"), v("tcp.bulk_ns_per_seg")
	switch {
	case w.lossy:
		sctpPkt, tcpSeg = v("sctp.lossy_ns_per_pkt"), v("tcp.lossy_ns_per_seg")
	case w.small:
		sctpPkt = aux["sctp.small_ns_per_pkt"]
	}
	meshPkt := v("netsim.mesh_pkt_ns") // what the transport drivers ran over
	transport := v("sctp.pkts_sent")*(sctpPkt-meshPkt) + v("tcp.segs_sent")*(tcpSeg-meshPkt)

	msgs := float64(r.msgs())
	rpi := v("rpi.send_calls")*v("rpi.envelope_codec_ns") + v("rpi.poll_events")*v("transport.poller_post_next_ns")
	rpi += msgs * w.tcpShare * v("rpi.framer_ns_per_msg")
	if !w.small {
		rpi += msgs * (1 - w.tcpShare) * v("rpi.reasm_feed_ns")
	}
	mpi := msgs * v("mpi.loop_sendrecv_ns")

	set := func(name string, ns float64) float64 {
		share := ns / wallNS
		L[name] = metric{Value: share, Unit: "ratio"}
		return share
	}
	sum := set("budget.sim_share", sim) + set("budget.netsim_share", netsim) +
		set("budget.transport_share", transport) + set("budget.rpi_share", rpi) + set("budget.mpi_share", mpi)
	L["budget.residual_share"] = metric{Value: 1 - sum, Unit: "ratio"}
}

// table summarises every span name: calls, virtual time, and wall
// self-time over the calls across which no virtual time passed.
func (t *tracer) table() []string {
	out := []string{fmt.Sprintf("-- spans: %d stored, %d beyond the %d-span cap (aggregates cover all) --", len(t.spans), t.dropped, maxSpans),
		fmt.Sprintf("%-5s %-10s %12s %16s %14s %16s", "layer", "name", "calls", "virt_ms", "still_calls", "wall_self_ms")}
	for layer := range t.byName {
		for name, a := range t.byName[layer] {
			if a.calls == 0 {
				continue
			}
			out = append(out, fmt.Sprintf("%-5s %-10s %12d %16.3f %14d %16.3f", layerNames[layer], spanNames[name],
				a.calls, float64(a.virt)/1e6, a.still, float64(a.wallSelf)/1e6))
		}
	}
	return append(out, strings.Repeat("-", 40))
}
