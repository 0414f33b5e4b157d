package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/mpi/rpi"
	"repro/internal/netsim"
	"repro/internal/netsim/topo"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// A layer driver builds one layer and what lies beneath it, runs a fixed
// number of operations and reports wall ns and heap allocations per
// operation. Drivers nest: the netsim driver's cost includes the sim
// events it schedules, a transport driver's the netsim and sim work
// under it. budget.go subtracts the lower drivers to get self costs.
//
// fullDrivers sizes every driver for >= 1 s per round and takes the
// median of three rounds (go run ./benchmark -layers). quickDrivers is
// one round at an eighth of the size, cheap enough to run inside every
// traced pass so that budget shares come from the same process and
// minute as the counts they multiply.

type driverMode int

const (
	fullDrivers driverMode = iota
	quickDrivers
	smokeDrivers // tests: a few hundred operations, one round
)

// measured is one timed round of a driver.
type measured struct {
	wall    time.Duration
	mallocs uint64
	ops     int
}

// stopwatch brackets the timed part of a round; set-up stays outside.
type stopwatch struct {
	t0 time.Time
	m0 uint64
}

func startWatch() stopwatch {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return stopwatch{m0: m.Mallocs, t0: time.Now()}
}

func (s stopwatch) stop(ops int) measured {
	wall := time.Since(s.t0)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return measured{wall: wall, mallocs: m.Mallocs - s.m0, ops: ops}
}

// driverSet collects the metrics of one driver pass. aux holds figures
// the budget needs that are not metrics of their own.
type driverSet struct {
	mode    driverMode
	metrics map[string]metric
	aux     map[string]float64
	err     error
}

// rounds runs fn at the mode's size and returns median ns/op and
// allocs/op. n is the full-size operation count.
func (ds *driverSet) rounds(n int, fn func(n int) measured) (ns, allocs float64) {
	rounds := 3
	switch ds.mode {
	case quickDrivers:
		n, rounds = n/8, 1
	case smokeDrivers:
		n, rounds = n/2000, 1
	}
	if n < 16 {
		n = 16
	}
	var nss, as []float64
	for i := 0; i < rounds; i++ {
		m := fn(n)
		if m.ops == 0 {
			ds.fail(fmt.Errorf("driver did no operations"))
			return 0, 0
		}
		nss = append(nss, float64(m.wall)/float64(m.ops))
		as = append(as, float64(m.mallocs)/float64(m.ops))
	}
	return median(nss), median(as)
}

func (ds *driverSet) set(name string, v float64) {
	ds.metrics[name] = metric{Value: v, Unit: unitOf(perLayer, name)}
}

func (ds *driverSet) fail(err error) {
	if ds.err == nil {
		ds.err = err
	}
}

// runLayers runs every isolated driver.
func runLayers(mode driverMode) *driverSet {
	ds := &driverSet{mode: mode, metrics: make(map[string]metric), aux: make(map[string]float64)}
	ds.simDrivers()
	ds.netsimDrivers()
	ds.wireDrivers()
	ds.tcpDrivers()
	ds.sctpDrivers()
	ds.rpiDrivers()
	ds.mpiDrivers()
	ds.benchDriver()
	return ds
}

func printLayers(ds *driverSet) error {
	fmt.Printf("== layer drivers (%s, gomaxprocs=%d) ==\n", runtime.Version(), runtime.GOMAXPROCS(0))
	printLayerMetrics(os.Stdout, ds.metrics)
	return ds.err
}

// --- sim ----------------------------------------------------------------

// delays yields a fixed pseudo-random sequence in [lo, lo+span).
type delays struct {
	x        uint64
	lo, span time.Duration
}

func (d *delays) next() time.Duration {
	d.x = splitmix(d.x)
	return d.lo + time.Duration(d.x%uint64(d.span))
}

// timerChain keeps `live` timers outstanding, each firing schedules the
// next, until n have fired; it returns the timed kernel run.
func timerChain(n, live int, d delays) measured {
	k := sim.New(1)
	left := n
	var fire func()
	fire = func() {
		if left > 0 {
			left--
			k.After(d.next(), fire)
		}
	}
	for i := 0; i < live && left > 0; i++ {
		left--
		k.After(d.next(), fire)
	}
	w := startWatch()
	if err := k.Run(); err != nil {
		return measured{}
	}
	return w.stop(n)
}

func (ds *driverSet) simDrivers() {
	// After with a delay of at most 2 ms, then the fire: the dense band
	// of the timer wheel, one event per packet-hop and per short timer.
	ns, allocs := ds.rounds(16_000_000, func(n int) measured {
		return timerChain(n, 64, delays{x: 1, lo: time.Microsecond, span: 2 * time.Millisecond})
	})
	ds.set("sim.after_fire_ns", ns)
	ds.set("sim.allocs_per_event", allocs)

	// After then Timer.Stop before it fires: the T3 / delayed-ack pattern.
	ns, _ = ds.rounds(40_000_000, func(n int) measured {
		k := sim.New(1)
		nop := func() {}
		w := startWatch()
		for i := 0; i < n; i++ {
			k.After(time.Second, nop).Stop()
		}
		return w.stop(n)
	})
	ds.set("sim.after_stop_ns", ns)

	// 1-4 s delays with at most 64 live timers: the sparse path through
	// the upper wheel level and the far heap, with cascades on the way.
	ns, _ = ds.rounds(4_000_000, func(n int) measured {
		return timerChain(n, 64, delays{x: 2, lo: time.Second, span: 3 * time.Second})
	})
	ds.set("sim.after_far_ns", ns)

	// One Cond hand-off between two processes.
	ns, _ = ds.rounds(1_800_000, func(n int) measured {
		k := sim.New(1)
		toA, toB := sim.NewCond(k), sim.NewCond(k)
		turn := 0
		k.Spawn("a", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				turn = 1
				toB.Signal()
				for turn != 0 {
					toA.Wait(p)
				}
			}
		})
		k.Spawn("b", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				for turn != 1 {
					toB.Wait(p)
				}
				turn = 0
				toA.Signal()
			}
		})
		w := startWatch()
		if err := k.Run(); err != nil {
			return measured{}
		}
		return w.stop(2 * n)
	})
	ds.set("sim.switch_ns", ns)

	// Spawn and first run of a process, 1024 per kernel.
	ns, _ = ds.rounds(800_000, func(n int) measured {
		const perKernel = 1024
		w := startWatch()
		done := 0
		for done < n {
			k := sim.New(1)
			for i := 0; i < perKernel; i++ {
				k.Spawn("p", func(p *sim.Proc) { p.Yield() })
			}
			if err := k.Run(); err != nil {
				return measured{}
			}
			done += perKernel
		}
		return w.stop(done)
	})
	ds.set("sim.spawn_us", ns/1e3)
}

// --- netsim -------------------------------------------------------------

const driverProto = 253 // an IP protocol number no stack here uses

// blast sends n pooled 1500 B packets from a to b in bursts that fit
// the drop-tail queue, pausing for each burst's serialization time.
func blast(k *sim.Kernel, from *netsim.Node, to netsim.Addr, n int) {
	const burst = 64
	k.Spawn("blast", func(p *sim.Proc) {
		for sent := 0; sent < n; {
			for i := 0; i < burst && sent < n; i++ {
				pkt := netsim.NewPooledPacket(from.Addr(), to, driverProto, wire.GetBuf(1500))
				from.Send(pkt)
				sent++
			}
			p.Sleep(burst * 1520 * 8 * time.Nanosecond)
		}
	})
}

func meshBlast(n int, loss float64) measured {
	k := sim.New(1)
	lp := netsim.DefaultLinkParams()
	lp.LossRate = loss
	_, nodes := netsim.Cluster(k, 2, 1, lp)
	got := 0
	nodes[1].Handle(driverProto, func(*netsim.Packet, *netsim.Iface) { got++ })
	blast(k, nodes[0], nodes[1].Addr(), n)
	w := startWatch()
	if err := k.Run(); err != nil || (loss == 0 && got != n) {
		return measured{}
	}
	return w.stop(n)
}

func (ds *driverSet) netsimDrivers() {
	ns, allocs := ds.rounds(3_000_000, func(n int) measured { return meshBlast(n, 0) })
	ds.set("netsim.mesh_pkt_ns", ns)
	ds.set("netsim.mesh_pkt_allocs", allocs)
	ns, _ = ds.rounds(3_000_000, func(n int) measured { return meshBlast(n, 0.02) })
	ds.set("netsim.lossy_pkt_ns", ns)

	// A cross-pod path on a 256-host fat-tree, cost per hop.
	ns, allocs = ds.rounds(800_000, func(n int) measured {
		k := sim.New(1)
		tn, err := topo.Build(k, 256, topo.Config{Kind: topo.FatTree})
		if err != nil {
			return measured{}
		}
		src, dst := tn.Hosts[0], tn.Hosts[255]
		hops := len(tn.Network.RouterValue().Route(src.Addr(), dst.Addr()))
		got := 0
		dst.Handle(driverProto, func(*netsim.Packet, *netsim.Iface) { got++ })
		blast(k, src, dst.Addr(), n)
		w := startWatch()
		if err := k.Run(); err != nil || got != n || hops == 0 {
			return measured{}
		}
		return w.stop(n * hops)
	})
	ds.set("netsim.fabric_hop_ns", ns)
	ds.set("netsim.fabric_hop_allocs", allocs)

	ns, _ = ds.rounds(28_000, func(n int) measured {
		builds := n / 16
		if builds == 0 {
			builds = 1
		}
		w := startWatch()
		for i := 0; i < builds; i++ {
			if _, err := topo.Build(sim.New(1), 256, topo.Config{Kind: topo.FatTree}); err != nil {
				return measured{}
			}
		}
		return w.stop(builds)
	})
	ds.set("netsim.topo_build_ms", ns/1e6)
}

// --- wire and transport -------------------------------------------------

var crcSink uint32

func (ds *driverSet) wireDrivers() {
	ns, _ := ds.rounds(25_000_000, func(n int) measured {
		w := startWatch()
		for i := 0; i < n; i++ {
			wire.PutBuf(wire.GetBuf(1500))
		}
		return w.stop(n)
	})
	ds.set("wire.pool_getput_ns", ns)

	ns, _ = ds.rounds(40_000_000, func(n int) measured {
		b := wire.NewBipBuffer(256 << 10)
		seg := make([]byte, 1460)
		w := startWatch()
		for i := 0; i < n; i++ {
			b.Write(seg)
			b.Consume(len(b.Head()))
		}
		return w.stop(n)
	})
	ds.set("wire.bip_write_consume_ns", ns)

	ns, _ = ds.rounds(20_000_000, func(n int) measured {
		buf := make([]byte, 1024)
		w := startWatch()
		for i := 0; i < n; i++ {
			crcSink += wire.CRC32c(buf)
		}
		return w.stop(n)
	})
	ds.set("wire.crc32c_ns_per_kb", ns)

	ns, _ = ds.rounds(45_000_000, func(n int) measured {
		p := transport.NewPoller(func() {})
		var ids [8]int
		for i := range ids {
			ids[i] = p.Register(i)
		}
		w := startWatch()
		for i := 0; i < n; i++ {
			p.Post(ids[i&7], transport.ReadyRecv)
			p.Next()
		}
		return w.stop(n)
	})
	ds.set("transport.poller_post_next_ns", ns)
}

// --- rpi ----------------------------------------------------------------

// replayStream is a transport.ByteStream over a prepared byte slice,
// handing it out in MSS-sized contiguous regions the way a TCP receive
// buffer fills.
type replayStream struct {
	data []byte
	off  int
}

func (s *replayStream) Peek() ([]byte, error) {
	if s.off == len(s.data) {
		return nil, transport.ErrWouldBlock
	}
	end := s.off + 1460
	if end > len(s.data) {
		end = len(s.data)
	}
	return s.data[s.off:end], nil
}

func (s *replayStream) Discard(n int) { s.off += n }

func (s *replayStream) TryRead(b []byte) (int, error) {
	h, err := s.Peek()
	if err != nil {
		return 0, err
	}
	n := copy(b, h)
	s.off += n
	return n, nil
}

var envSink rpi.Envelope

func (ds *driverSet) rpiDrivers() {
	ns, _ := ds.rounds(13_000_000, func(n int) measured {
		env := rpi.Envelope{Length: 64, Tag: 7, Context: 0, Rank: 3, Kind: rpi.KindShort, Seq: 1}
		w := startWatch()
		for i := 0; i < n; i++ {
			env.Seq = uint64(i)
			got, err := rpi.DecodeEnvelope(env.Encode())
			if err != nil {
				return measured{}
			}
			envSink = got
		}
		return w.stop(n)
	})
	ds.set("rpi.envelope_codec_ns", ns)

	// StreamFramer.Drain over a stream of envelope + 64 B body messages.
	ns, _ = ds.rounds(10_000_000, func(n int) measured {
		const batch = 4096
		env := rpi.Envelope{Length: 64, Kind: rpi.KindShort}
		var stream []byte
		body := make([]byte, 64)
		for i := 0; i < batch; i++ {
			stream = append(append(stream, env.Encode()...), body...)
		}
		src := &replayStream{data: stream}
		var f rpi.StreamFramer
		got := 0
		onMsg := func(_ rpi.Envelope, b []byte) { got++; wire.PutBuf(b) }
		w := startWatch()
		for got < n {
			src.off = 0
			f.Drain(src, onMsg, func() {})
		}
		return w.stop(got)
	})
	ds.set("rpi.framer_ns_per_msg", ns)

	// Reassembler.Feed: an envelope frame then a 30 KiB body in 8 KiB
	// chunks, each frame a pooled buffer as the SCTP socket hands it up.
	ns, _ = ds.rounds(1_300_000, func(n int) measured {
		const size, chunk = 30 << 10, 8 << 10
		r := rpi.NewReassembler(rpi.NewCounters())
		env := rpi.Envelope{Length: size, Kind: rpi.KindShort}
		encoded := env.Encode()
		key := rpi.RecvKey{ID: 1, Stream: 2}
		frame := func(n int) []byte { return wire.GetBuf(n) }
		w := startWatch()
		for i := 0; i < n; i++ {
			r.Feed(key, rpi.PPIDEnvelope, append(frame(len(encoded))[:0], encoded...))
			var res rpi.FeedResult
			var body []byte
			for off := 0; off < size; off += chunk {
				c := chunk
				if off+c > size {
					c = size - off
				}
				res, _, body = r.Feed(key, rpi.PPIDBody, frame(c))
			}
			if res != rpi.FeedMessage || len(body) != size {
				return measured{}
			}
			wire.PutBuf(body)
		}
		return w.stop(n)
	})
	ds.set("rpi.reasm_feed_ns", ns)
}
