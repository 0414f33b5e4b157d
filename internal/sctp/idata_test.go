package sctp

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// idataSendRecv pushes count messages of size bytes from client to
// server, with both ends using cfgCli/cfgSrv respectively, and checks
// content plus per-stream MID ordering. It returns the client and
// server associations for post-run inspection.
func idataSendRecv(t *testing.T, seed int64, cfgCli, cfgSrv Config, count, size, streams int) (*Assoc, *Assoc) {
	t.Helper()
	k, sa, sb, _ := pair(seed, lan(), cfgCli)
	srv, _ := sb.SocketConfig(5000, cfgSrv)
	srv.Listen()
	received := 0
	lastMID := make(map[uint16]int)
	var srvAssoc *Assoc
	k.Spawn("server", func(p *sim.Proc) {
		for received < count {
			m, err := srv.RecvMsg(p)
			if err != nil {
				t.Error(err)
				return
			}
			if m.Notification != NotifyNone {
				continue
			}
			srvAssoc = srv.Assoc(m.Assoc)
			if len(m.Data) != size {
				t.Errorf("msg size %d want %d", len(m.Data), size)
				return
			}
			for i := range m.Data {
				if m.Data[i] != byte(int(m.Stream)+i) {
					t.Errorf("corrupt payload on stream %d", m.Stream)
					return
				}
			}
			// Per-stream MID ordering: when interleaving is on, each
			// stream's messages must arrive in MID order 0,1,2,...
			if srvAssoc.UsesIData() {
				if last, ok := lastMID[m.Stream]; ok && int(m.MID) != last+1 {
					t.Errorf("stream %d MID %d after %d", m.Stream, m.MID, last)
				} else if !ok && m.MID != 0 {
					t.Errorf("stream %d first MID = %d, want 0", m.Stream, m.MID)
				}
				lastMID[m.Stream] = int(m.MID)
			}
			received++
		}
	})
	var cliAssoc *Assoc
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.SocketConfig(0, cfgCli)
		id, err := cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, streams)
		if err != nil {
			t.Error(err)
			return
		}
		cliAssoc = cli.Assoc(id)
		buf := make([]byte, size)
		for i := 0; i < count; i++ {
			st := uint16(i % streams)
			for j := range buf {
				buf[j] = byte(int(st) + j)
			}
			if err := cli.SendMsg(p, id, st, 0, buf); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != count {
		t.Fatalf("received %d of %d", received, count)
	}
	return cliAssoc, srvAssoc
}

// TestIDataNegotiatedTransfer checks that when both ends enable
// RFC 8260 interleaving, the association uses I-DATA chunks end to
// end, including multi-chunk fragmented messages.
func TestIDataNegotiatedTransfer(t *testing.T) {
	cfg := Config{IData: true, HBDisable: true, SndBuf: 220 << 10, RcvBuf: 220 << 10}
	cli, srv := idataSendRecv(t, 101, cfg, cfg, 40, 30<<10, 10)
	if !cli.UsesIData() || !srv.UsesIData() {
		t.Fatalf("interleaving not negotiated: cli %v srv %v", cli.UsesIData(), srv.UsesIData())
	}
	cs, ss := cli.Statistics(), srv.Statistics()
	if cs.IDataChunksSent == 0 {
		t.Error("client sent no I-DATA chunks")
	}
	if ss.IDataChunksRcvd == 0 {
		t.Error("server received no I-DATA chunks")
	}
}

// TestIDataLegacyInterop is the fallback matrix: whenever either end
// does not enable interleaving, the association must run pure
// RFC 4960 DATA and still deliver correctly.
func TestIDataLegacyInterop(t *testing.T) {
	cases := []struct {
		name     string
		cli, srv bool
	}{
		{"idata-client_legacy-server", true, false},
		{"legacy-client_idata-server", false, true},
		{"legacy-both", false, false},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfgCli := Config{IData: tc.cli, HBDisable: true, SndBuf: 220 << 10, RcvBuf: 220 << 10}
			cfgSrv := Config{IData: tc.srv, HBDisable: true, SndBuf: 220 << 10, RcvBuf: 220 << 10}
			cli, srv := idataSendRecv(t, 110+int64(i), cfgCli, cfgSrv, 30, 20<<10, 5)
			if cli.UsesIData() || srv.UsesIData() {
				t.Fatalf("fell forward to I-DATA: cli %v srv %v", cli.UsesIData(), srv.UsesIData())
			}
			cs, ss := cli.Statistics(), srv.Statistics()
			if cs.IDataChunksSent != 0 || ss.IDataChunksRcvd != 0 {
				t.Errorf("I-DATA chunks on legacy assoc: sent %d rcvd %d",
					cs.IDataChunksSent, ss.IDataChunksRcvd)
			}
		})
	}
}

// TestIDataSchedulers runs a mixed-stream transfer under every
// scheduler policy; whatever the send-side interleaving order,
// per-stream MID delivery order and payload integrity must hold.
func TestIDataSchedulers(t *testing.T) {
	for i, pol := range []SchedPolicy{SchedFIFO, SchedRoundRobin, SchedWeightedFair, SchedPriority} {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := Config{
				IData:     true,
				HBDisable: true,
				Scheduler: pol,
				SndBuf:    220 << 10,
				RcvBuf:    220 << 10,
			}
			idataSendRecv(t, 120+int64(i), cfg, cfg, 40, 12<<10, 4)
		})
	}
}

// TestIDataSchedulersUnderLoss repeats the scheduler matrix on a
// lossy link, exercising retransmission of transmit-time-TSN chunks.
func TestIDataSchedulersUnderLoss(t *testing.T) {
	for i, pol := range []SchedPolicy{SchedFIFO, SchedRoundRobin, SchedWeightedFair, SchedPriority} {
		t.Run(pol.String(), func(t *testing.T) {
			lp := lan()
			lp.LossRate = 0.03
			cfg := Config{
				IData:     true,
				HBDisable: true,
				Scheduler: pol,
				SndBuf:    220 << 10,
				RcvBuf:    220 << 10,
			}
			k, sa, sb, _ := pair(130+int64(i), lp, cfg)
			srv, _ := sb.SocketConfig(5000, cfg)
			srv.Listen()
			const count, size, streams = 30, 8 << 10, 4
			received := 0
			k.Spawn("server", func(p *sim.Proc) {
				for received < count {
					m, err := srv.RecvMsg(p)
					if err != nil {
						t.Error(err)
						return
					}
					if m.Notification != NotifyNone {
						continue
					}
					if len(m.Data) != size {
						t.Errorf("msg size %d want %d", len(m.Data), size)
						return
					}
					received++
				}
			})
			k.Spawn("client", func(p *sim.Proc) {
				cli, _ := sa.SocketConfig(0, cfg)
				id, err := cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, streams)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < count; i++ {
					if err := cli.SendMsg(p, id, uint16(i%streams), 0, make([]byte, size)); err != nil {
						t.Error(err)
						return
					}
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if received != count {
				t.Fatalf("received %d of %d", received, count)
			}
		})
	}
}

// TestIDataPriorityPreemption is the paper's head-of-line argument
// taken to chunk granularity: with a strict-priority scheduler, a
// small message on a high-priority stream that is enqueued while a
// bulk transfer's fragments are still queued must be delivered before
// the bulk message completes.
func TestIDataPriorityPreemption(t *testing.T) {
	cfg := Config{
		IData:     true,
		HBDisable: true,
		Scheduler: SchedPriority,
		SndBuf:    512 << 10,
		RcvBuf:    512 << 10,
	}
	k, sa, sb, _ := pair(140, lan(), cfg)
	srv, _ := sb.SocketConfig(5000, cfg)
	srv.Listen()
	var order []uint16
	k.Spawn("server", func(p *sim.Proc) {
		for len(order) < 2 {
			m, err := srv.RecvMsg(p)
			if err != nil {
				return
			}
			if m.Notification != NotifyNone {
				continue
			}
			order = append(order, m.Stream)
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.SocketConfig(0, cfg)
		id, err := cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, 2)
		if err != nil {
			t.Error(err)
			return
		}
		// Stream 0 carries bulk at the default class; stream 1 is the
		// latency-sensitive class.
		if err := cli.SetStreamPriority(id, 0, 2); err != nil {
			t.Error(err)
			return
		}
		if err := cli.SetStreamPriority(id, 1, 0); err != nil {
			t.Error(err)
			return
		}
		// Queue a 256 KiB bulk message, then immediately a small one.
		// The bulk's fragments dominate the send queue; only chunk-level
		// preemption can get the small message out first.
		if err := cli.SendMsg(p, id, 0, 0, make([]byte, 256<<10)); err != nil {
			t.Error(err)
			return
		}
		if err := cli.SendMsg(p, id, 1, 0, []byte("urgent")); err != nil {
			t.Error(err)
			return
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(order))
	}
	if order[0] != 1 {
		t.Fatalf("delivery order = %v, want the small stream-1 message first", order)
	}
}

// TestIDataDeterminism: same seed, same virtual-time outcome, with
// interleaving and a non-trivial scheduler in play.
func TestIDataDeterminism(t *testing.T) {
	run := func() string {
		cfg := Config{IData: true, HBDisable: true, Scheduler: SchedWeightedFair, SndBuf: 220 << 10, RcvBuf: 220 << 10}
		k, sa, sb, _ := pair(150, lan(), cfg)
		srv, _ := sb.SocketConfig(5000, cfg)
		srv.Listen()
		received := 0
		k.Spawn("server", func(p *sim.Proc) {
			for received < 30 {
				m, err := srv.RecvMsg(p)
				if err != nil {
					return
				}
				if m.Notification == NotifyNone {
					received++
				}
			}
		})
		k.Spawn("client", func(p *sim.Proc) {
			cli, _ := sa.SocketConfig(0, cfg)
			id, err := cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, 5)
			if err != nil {
				return
			}
			for i := 0; i < 30; i++ {
				cli.SendMsg(p, id, uint16(i%5), 0, make([]byte, 6000))
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(k.Now(), received)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %s vs %s", a, b)
	}
}
