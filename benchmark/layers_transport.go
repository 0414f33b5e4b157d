package main

import (
	"repro/internal/netsim"
	"repro/internal/sctp"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/wire"
)

// Transport drivers: two stacks on a two-node mesh and one connection or
// association between them, no MPI and no RPI above. Buffers are the
// paper's 220 KiB, as in every workload.

const driverPort = 5000

func twoNodes(loss float64) (*sim.Kernel, []*netsim.Node) {
	k := sim.New(1)
	lp := netsim.DefaultLinkParams()
	lp.LossRate = loss
	_, nodes := netsim.Cluster(k, 2, 1, lp)
	return k, nodes
}

// connectBatch is how many connections one kernel opens in the
// handshake drivers.
const connectBatch = 2048

// batches times run over as many kernels as n operations need. run
// builds its own kernel, opens batch connections and reports how many
// it opened.
func batches(n int, run func(batch int) (done int, ok bool)) measured {
	w := startWatch()
	total := 0
	for total < n {
		batch := min(connectBatch, n-total)
		done, ok := run(batch)
		if !ok {
			return measured{}
		}
		total += done
	}
	return w.stop(total)
}

// --- tcp ----------------------------------------------------------------

var tcpDriverConfig = tcp.Config{SndBuf: 220 << 10, RcvBuf: 220 << 10, NoDelay: true}

// tcpBulk writes total bytes one way and reads them back out at the
// far end; an operation is one segment sent by either side.
func tcpBulk(total int, loss float64) measured {
	k, nodes := twoNodes(loss)
	client, server := tcp.NewStack(nodes[0], tcpDriverConfig), tcp.NewStack(nodes[1], tcpDriverConfig)
	l, err := server.Listen(driverPort)
	if err != nil {
		return measured{}
	}
	var segs int64
	got := 0
	k.Spawn("server", func(p *sim.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		buf := make([]byte, 64<<10)
		for {
			n, err := c.Read(p, buf)
			got += n
			if err != nil {
				break
			}
		}
		c.Close()
		segs += c.Stats.SegsSent
	})
	k.Spawn("client", func(p *sim.Proc) {
		c, err := client.Connect(p, nodes[1].Addr(), driverPort)
		if err != nil {
			return
		}
		chunk := make([]byte, 64<<10)
		for sent := 0; sent < total; sent += len(chunk) {
			if _, err := c.Write(p, chunk); err != nil {
				return
			}
		}
		c.Close()
		// Drain to EOF so the final ACKs are counted.
		for {
			if _, err := c.Read(p, chunk); err != nil {
				break
			}
		}
		segs += c.Stats.SegsSent
	})
	w := startWatch()
	if err := k.Run(); err != nil || got < total {
		return measured{}
	}
	return w.stop(int(segs))
}

func (ds *driverSet) tcpDrivers() {
	// Handshakes: one listener, connections opened one after another,
	// connectBatch per kernel so ephemeral ports never run out.
	ns, _ := ds.rounds(40_000, func(n int) measured {
		return batches(n, func(batch int) (done int, ok bool) {
			k, nodes := twoNodes(0)
			client, server := tcp.NewStack(nodes[0], tcpDriverConfig), tcp.NewStack(nodes[1], tcpDriverConfig)
			l, err := server.Listen(driverPort)
			if err != nil {
				return 0, false
			}
			k.Spawn("server", func(p *sim.Proc) {
				for done < batch {
					if _, err := l.Accept(p); err != nil {
						return
					}
					done++
				}
			})
			k.Spawn("client", func(p *sim.Proc) {
				for i := 0; i < batch; i++ {
					if _, err := client.Connect(p, nodes[1].Addr(), driverPort); err != nil {
						return
					}
				}
			})
			return done, k.Run() == nil && done == batch
		})
	})
	ds.set("tcp.connect_us", ns/1e3)

	// ~1460 B per segment plus ACKs: n segments is about n KiB one way.
	ns, allocs := ds.rounds(300_000, func(n int) measured { return tcpBulk(n<<10, 0) })
	ds.set("tcp.bulk_ns_per_seg", ns)
	ds.set("tcp.bulk_allocs_per_seg", allocs)
	ns, _ = ds.rounds(300_000, func(n int) measured { return tcpBulk(n<<10, 0.02) })
	ds.set("tcp.lossy_ns_per_seg", ns)
}

// --- sctp ---------------------------------------------------------------

var sctpDriverConfig = sctp.Config{SndBuf: 220 << 10, RcvBuf: 220 << 10, Streams: 10, HBDisable: true}

// sctpPackets sums PacketsSent over every association of a socket.
func sctpPackets(sk *sctp.Socket, ids ...sctp.AssocID) int64 {
	if len(ids) == 0 {
		ids = sk.Assocs()
	}
	var n int64
	for _, id := range ids {
		if a := sk.Assoc(id); a != nil {
			n += a.Statistics().PacketsSent
		}
	}
	return n
}

// recvData returns the next data message, skipping notifications.
func recvData(p *sim.Proc, sk *sctp.Socket) (*sctp.Message, error) {
	for {
		m, err := sk.RecvMsg(p)
		if err != nil {
			return nil, err
		}
		if m.Notification == sctp.NotifyNone {
			return m, nil
		}
	}
}

// sctpExchange sends msgs messages of size bytes from client to server;
// with echo the server returns each one before the next is sent (the
// ping-pong shape). It returns the round with ops = packets sent by
// both ends, and the message count.
func sctpExchange(msgs, size int, loss float64, echo bool) (measured, int) {
	k, nodes := twoNodes(loss)
	sa, sb := sctp.NewStack(nodes[0], sctpDriverConfig), sctp.NewStack(nodes[1], sctpDriverConfig)
	srv, err := sb.Socket(driverPort)
	if err != nil {
		return measured{}, 0
	}
	srv.Listen()
	cli, err := sa.Socket(0)
	if err != nil {
		return measured{}, 0
	}
	var pkts int64
	delivered := 0
	k.Spawn("server", func(p *sim.Proc) {
		for rcvd := 0; rcvd < msgs; rcvd++ {
			m, err := recvData(p, srv)
			if err != nil {
				return
			}
			delivered++
			if echo {
				if err := srv.SendMsg(p, m.Assoc, m.Stream, m.PPID, m.Data); err != nil {
					return
				}
			}
			wire.PutBuf(m.Data)
		}
		pkts += sctpPackets(srv)
	})
	k.Spawn("client", func(p *sim.Proc) {
		id, err := cli.Connect(p, []netsim.Addr{nodes[1].Addr()}, driverPort, 10)
		if err != nil {
			return
		}
		msg := make([]byte, size)
		for i := 0; i < msgs; i++ {
			if err := cli.SendMsg(p, id, uint16(i%10), 1, msg); err != nil {
				return
			}
			if echo {
				m, err := recvData(p, cli)
				if err != nil {
					return
				}
				delivered++
				wire.PutBuf(m.Data)
			}
		}
		// Wait until everything sent has been acknowledged, so the
		// server's count and this one cover the same traffic.
		for cli.Assoc(id).SndBufAvailable() < sctpDriverConfig.SndBuf {
			p.Sleep(1e6)
		}
		pkts += sctpPackets(cli, id)
	})
	w := startWatch()
	want := msgs
	if echo {
		want = 2 * msgs
	}
	if err := k.Run(); err != nil || delivered != want {
		return measured{}, 0
	}
	return w.stop(int(pkts)), want
}

func (ds *driverSet) sctpDrivers() {
	// Four-way handshakes: one listening socket, one fresh client socket
	// per association.
	ns, _ := ds.rounds(45_000, func(n int) measured {
		return batches(n, func(batch int) (done int, ok bool) {
			k, nodes := twoNodes(0)
			sa, sb := sctp.NewStack(nodes[0], sctpDriverConfig), sctp.NewStack(nodes[1], sctpDriverConfig)
			srv, err := sb.Socket(driverPort)
			if err != nil {
				return 0, false
			}
			srv.Listen()
			k.Spawn("client", func(p *sim.Proc) {
				for i := 0; i < batch; i++ {
					cli, err := sa.Socket(0)
					if err != nil {
						return
					}
					if _, err := cli.Connect(p, []netsim.Addr{nodes[1].Addr()}, driverPort, 10); err != nil {
						return
					}
					done++
				}
			})
			return done, k.Run() == nil && done == batch
		})
	})
	ds.set("sctp.connect_us", ns/1e3)

	// 30 KiB messages are ~21 data packets plus SACKs: n packets is
	// about n/32 messages.
	ns, allocs := ds.rounds(480_000, func(n int) measured {
		m, _ := sctpExchange(n/32+1, 30<<10, 0, false)
		return m
	})
	ds.set("sctp.bulk_ns_per_pkt", ns)
	ds.set("sctp.bulk_allocs_per_pkt", allocs)
	ns, _ = ds.rounds(480_000, func(n int) measured {
		m, _ := sctpExchange(n/32+1, 30<<10, 0.02, false)
		return m
	})
	ds.set("sctp.lossy_ns_per_pkt", ns)

	// 64 B echo: cost per message, and per packet for the budget.
	var perPkt []float64
	ns, allocs = ds.rounds(300_000, func(n int) measured {
		m, msgs := sctpExchange(n/2+1, 64, 0, true)
		if m.ops > 0 {
			perPkt = append(perPkt, float64(m.wall)/float64(m.ops))
		}
		m.ops = msgs
		return m
	})
	ds.set("sctp.small_msg_ns", ns)
	ds.set("sctp.small_msg_allocs", allocs)
	ds.aux["sctp.small_ns_per_pkt"] = median(perPkt)
}
