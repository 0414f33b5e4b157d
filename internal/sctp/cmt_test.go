package sctp

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// cmtTransfer pushes msgs messages of size bytes over a 3-subnet
// multihomed pair whose links are bandwidth-limited, returning the
// completion time.
func cmtTransfer(t *testing.T, seed int64, cfg Config, msgs, size int, loss float64) time.Duration {
	t.Helper()
	lp := netsim.DefaultLinkParams()
	lp.Bandwidth = 100e6 // 100 Mb/s per link: bandwidth is the bottleneck
	lp.LossRate = loss
	k, sa, sb, _, nodes := mpair(seed, lp, cfg)
	srv, _ := sb.SocketConfig(5000, cfg)
	srv.Listen()
	received := 0
	var done time.Duration
	k.Spawn("server", func(p *sim.Proc) {
		for received < msgs {
			m, err := srv.RecvMsg(p)
			if err != nil {
				return
			}
			if m.Notification != NotifyNone {
				continue
			}
			if len(m.Data) != size {
				t.Errorf("size %d want %d", len(m.Data), size)
				return
			}
			received++
		}
		done = p.Now()
	})
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.SocketConfig(0, cfg)
		id, err := cli.Connect(p, nodes[1].Addrs(), 5000, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < msgs; i++ {
			if err := cli.SendMsg(p, id, uint16(i%10), 0, make([]byte, size)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != msgs {
		t.Fatalf("received %d of %d", received, msgs)
	}
	return done
}

// TestCMTThroughput: striping across three 100 Mb/s paths must be
// substantially faster than using the primary alone.
func TestCMTThroughput(t *testing.T) {
	base := Config{SndBuf: 220 << 10, RcvBuf: 220 << 10, HBDisable: true}
	single := cmtTransfer(t, 31, base, 40, 64<<10, 0)
	cmtCfg := base
	cmtCfg.CMT = true
	cmt := cmtTransfer(t, 31, cmtCfg, 40, 64<<10, 0)
	if cmt >= single {
		t.Fatalf("CMT (%v) not faster than single path (%v)", cmt, single)
	}
	speedup := float64(single) / float64(cmt)
	if speedup < 1.8 {
		t.Errorf("CMT speedup %.2fx; want approaching 3x over three paths", speedup)
	}
	t.Logf("CMT speedup: %.2fx (%v -> %v)", speedup, single, cmt)
}

// TestCMTIntegrityUnderLoss: striping plus loss plus cross-path
// reordering must still deliver everything intact (split fast
// retransmit handles the reordering).
func TestCMTIntegrityUnderLoss(t *testing.T) {
	cfg := Config{SndBuf: 220 << 10, RcvBuf: 220 << 10, HBDisable: true, CMT: true}
	cmtTransfer(t, 32, cfg, 60, 16<<10, 0.02)
}

// TestCMTSpuriousRetransmissions: on loss-free but unequal-delay paths,
// cross-path reordering must not trigger fast retransmissions (the
// split-fast-retransmit rule). Without SFR, nearly every SACK would
// report "missing" chunks on the slow path.
func TestCMTSpuriousRetransmissions(t *testing.T) {
	cfg := Config{SndBuf: 220 << 10, RcvBuf: 220 << 10, HBDisable: true, CMT: true}
	k := sim.New(33)
	lp := netsim.DefaultLinkParams()
	net, nodes := netsim.Cluster(k, 2, 3, lp)
	// Subnet 1 and 2 are 10x slower than subnet 0: heavy reordering.
	for s := 1; s <= 2; s++ {
		for _, src := range nodes[0].Addrs() {
			for _, dst := range nodes[1].Addrs() {
				if src.Subnet() == s && dst.Subnet() == s {
					slow := lp
					slow.Delay = 10 * lp.Delay
					net.SetLinkParamsBetween(src, dst, slow)
					net.SetLinkParamsBetween(dst, src, slow)
				}
			}
		}
	}
	sa := NewStack(nodes[0], cfg)
	sb := NewStack(nodes[1], cfg)
	srv, _ := sb.SocketConfig(5000, cfg)
	srv.Listen()
	const msgs = 60
	received := 0
	k.Spawn("server", func(p *sim.Proc) {
		for received < msgs {
			m, err := srv.RecvMsg(p)
			if err != nil {
				return
			}
			if m.Notification == NotifyNone {
				received++
			}
		}
	})
	var st Stats
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.SocketConfig(0, cfg)
		id, err := cli.Connect(p, nodes[1].Addrs(), 5000, 0)
		if err != nil {
			t.Error(err)
			return
		}
		a := cli.Assoc(id)
		for i := 0; i < msgs; i++ {
			if err := cli.SendMsg(p, id, 0, 0, make([]byte, 8<<10)); err != nil {
				t.Error(err)
				return
			}
		}
		for a.totalFlight() > 0 || a.sched.pending() > 0 {
			p.Sleep(time.Millisecond)
		}
		st = a.Statistics()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != msgs {
		t.Fatalf("received %d of %d", received, msgs)
	}
	if st.FastRetransmits > 3 {
		t.Errorf("%d spurious fast retransmissions on loss-free reordered paths (SFR should prevent these)",
			st.FastRetransmits)
	}
	if st.Retransmits > 6 {
		t.Errorf("%d retransmissions with zero loss", st.Retransmits)
	}
}
