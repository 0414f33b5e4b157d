package sctp

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// backoffCfg pins the timer arithmetic: the RTO starts at the 200 ms
// floor and may double at most three times before the 1600 ms ceiling.
func backoffCfg() Config {
	return Config{
		RTOInitial:      200 * time.Millisecond,
		RTOMin:          200 * time.Millisecond,
		RTOMax:          1600 * time.Millisecond,
		AssocMaxRetrans: 5,
		HBDisable:       true,
	}
}

// TestShutdownRetransmitBackoff pins the SHUTDOWN retransmission
// schedule to the RFC 4960 §6.3.3 E2 rule: each expiry doubles the RTO,
// clamped to RTOMax, until Assoc.Max.Retrans expiries give up with
// ErrTimeout (plus one final ABORT). With a 200 ms floor and a 1600 ms
// ceiling the send gaps must be exactly 200, 400, 800, 1600, 1600,
// 1600 ms — before this rule the timer re-armed at a fixed RTO and a
// dead peer was probed at a constant rate forever.
func TestShutdownRetransmitBackoff(t *testing.T) {
	cfg := backoffCfg()
	k, sa, sb, net := pair(21, lan(), cfg)
	srv, _ := sb.SocketConfig(5000, cfg)
	srv.Listen()
	k.Spawn("server", func(p *sim.Proc) {
		for {
			m, err := srv.RecvMsg(p)
			if err != nil || m.Notification == NotifyCommLost {
				return
			}
		}
	})

	var sendTimes []time.Duration
	capturing := false
	net.Trace = func(ev string, pkt *netsim.Packet) {
		if capturing && ev == "send" && pkt.Src == netsim.MakeAddr(0, 1) {
			sendTimes = append(sendTimes, k.Now())
		}
	}

	var lostErr error
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.SocketConfig(0, cfg)
		id, err := cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, 0)
		if err != nil {
			t.Error(err)
			return
		}
		// Partition, then shut down: every packet the client sends from
		// here on is a SHUTDOWN retransmission (heartbeats are off), and
		// the last is the give-up ABORT.
		net.SetSubnetDown(0, true)
		capturing = true
		cli.CloseAssoc(id)
		for {
			m, err := cli.RecvMsg(p)
			if err != nil {
				t.Errorf("recv: %v", err)
				break
			}
			if m.Notification == NotifyCommLost {
				lostErr = m.Err
				break
			}
		}
		// Release the server so the simulation quiesces.
		for _, sid := range srv.Assocs() {
			srv.KillAssoc(sid)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if lostErr != ErrTimeout {
		t.Fatalf("shutdown gave up with %v, want ErrTimeout", lostErr)
	}
	want := []time.Duration{200, 400, 800, 1600, 1600, 1600}
	if len(sendTimes) != len(want)+1 {
		t.Fatalf("client sent %d packets after partition, want %d:\n%v",
			len(sendTimes), len(want)+1, sendTimes)
	}
	for i, w := range want {
		if got := sendTimes[i+1] - sendTimes[i]; got != w*time.Millisecond {
			t.Errorf("retransmit gap %d = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

// TestHeartbeatMissBackoff pins the heartbeat-miss rule: a probe with
// no HEARTBEAT-ACK within the path RTO doubles that RTO (clamped to
// RTOMax), so successive probes of a dead path space out exponentially
// instead of hammering it at the floor rate.
func TestHeartbeatMissBackoff(t *testing.T) {
	cfg := backoffCfg()
	cfg.HBDisable = false
	cfg.HBInterval = 250 * time.Millisecond
	cfg.AssocMaxRetrans = 50
	cfg.PathMaxRetrans = 50
	k, sa, sb, net := pair(22, lan(), cfg)
	srv, _ := sb.SocketConfig(5000, cfg)
	srv.Listen()
	k.Spawn("server", func(p *sim.Proc) {
		for {
			m, err := srv.RecvMsg(p)
			if err != nil || m.Notification == NotifyCommLost {
				return
			}
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.SocketConfig(0, cfg)
		id, err := cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, 0)
		if err != nil {
			t.Error(err)
			return
		}
		a := cli.Assoc(id)
		net.SetSubnetDown(0, true)

		// Sample the path RTO as heartbeat misses double it toward the
		// clamp. Polling in virtual time is deterministic.
		var rtos []time.Duration
		last := a.paths[a.primary].rto
		start := p.Now()
		for len(rtos) < 3 && p.Now()-start < 30*time.Second {
			p.Sleep(10 * time.Millisecond)
			if cur := a.paths[a.primary].rto; cur != last {
				rtos = append(rtos, cur)
				last = cur
			}
		}
		want := []time.Duration{400, 800, 1600}
		for i, w := range want {
			if i >= len(rtos) || rtos[i] != w*time.Millisecond {
				t.Errorf("rto after %d misses = %v, want %v", i+1, rtos, want)
				break
			}
		}

		// Clamp: further misses keep probing but the RTO stays at RTOMax.
		sent := a.Statistics().HeartbeatsSent
		p.Sleep(5 * time.Second)
		if a.state == aEstablished {
			if got := a.paths[a.primary].rto; got != cfg.RTOMax {
				t.Errorf("rto after clamp = %v, want %v", got, cfg.RTOMax)
			}
			if a.Statistics().HeartbeatsSent == sent {
				t.Error("no heartbeat probes after the RTO clamp")
			}
		}

		for _, sid := range srv.Assocs() {
			srv.KillAssoc(sid)
		}
		cli.KillAssoc(id)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownLeavesDeadPrimary shuts a multihomed association down
// after its primary subnet has died. Heartbeats are off, so nothing marks
// the primary inactive: the first SHUTDOWN goes to it and is lost. The
// retransmission must go to an alternate address (RFC 4960 §6.4), the
// SHUTDOWN ACK must go back to the address the SHUTDOWN came from, and
// the handshake must complete instead of giving up with ErrTimeout.
func TestShutdownLeavesDeadPrimary(t *testing.T) {
	cfg := backoffCfg()
	k, sa, sb, net, nodes := mpair(21, lan(), cfg)
	srv, _ := sb.SocketConfig(5000, cfg)
	srv.Listen()
	k.Spawn("server", func(p *sim.Proc) {
		for {
			m, err := srv.RecvMsg(p)
			if err != nil || m.Notification == NotifyCommLost || m.Notification == NotifyShutdownComplete {
				return
			}
		}
	})

	type sent struct{ src, dst netsim.Addr }
	var shutdowns, acks []sent
	capturing := false
	net.Trace = func(ev string, pkt *netsim.Packet) {
		if !capturing || ev != "send" {
			return
		}
		pk, err := decodePacket(append([]byte(nil), pkt.Payload...), false)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		for _, c := range pk.Chunks {
			switch c.Type {
			case ctShutdown:
				shutdowns = append(shutdowns, sent{pkt.Src, pkt.Dst})
			case ctShutdownAck:
				acks = append(acks, sent{pkt.Src, pkt.Dst})
			}
		}
	}

	var ended NotificationType
	var endErr error
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.SocketConfig(0, cfg)
		id, err := cli.Connect(p, nodes[1].Addrs(), 5000, 0)
		if err != nil {
			t.Error(err)
			return
		}
		net.SetSubnetDown(0, true)
		capturing = true
		cli.CloseAssoc(id)
		for {
			m, err := cli.RecvMsg(p)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if m.Notification == NotifyCommLost || m.Notification == NotifyShutdownComplete {
				ended, endErr = m.Notification, m.Err
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ended != NotifyShutdownComplete {
		t.Fatalf("association ended with notification %d (%v), want a completed shutdown", ended, endErr)
	}
	if len(shutdowns) != 2 {
		t.Fatalf("client sent %d SHUTDOWNs, want 2: %v", len(shutdowns), shutdowns)
	}
	if shutdowns[0].dst.Subnet() != 0 {
		t.Errorf("first SHUTDOWN went to %v, want the primary on subnet 0", shutdowns[0].dst)
	}
	if shutdowns[1].dst.Subnet() == 0 {
		t.Errorf("SHUTDOWN retransmitted to the dead primary %v", shutdowns[1].dst)
	}
	if len(acks) != 1 || acks[0].dst != shutdowns[1].src {
		t.Errorf("SHUTDOWN ACKs %v, want one, to the SHUTDOWN's source %v", acks, shutdowns[1].src)
	}
}
