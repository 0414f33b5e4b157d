package sctp

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestSackAfterT3KeepsFlightAccounting pins the per-chunk flight
// accounting against the double-decrement found by the chaos corpus
// (sctp seed 31, a single self-healing iface outage): when T3 requeues
// outstanding chunks it zeroes the path's flight, so a SACK that later
// acknowledges a chunk still parked in the retransmission queue must
// NOT subtract that chunk's bytes again. The stolen bytes belonged to
// other chunks genuinely in flight; once flight hit zero with the
// retransmission queue empty, processSack stopped the T3 timer and the
// still-unacked chunks were stranded forever (an MPI-level hang).
//
// The sequence, driven synchronously at one virtual instant on a real
// established association with the network blackholed:
//
//	send M1 M2 M3  -> all in flight
//	onT3            -> all requeued, flight=0, cwnd=1 MTU,
//	                   M1 M2 retransmitted (re-entering flight),
//	                   M3 parked in rtxQ
//	SACK cum=M1, gap=M3
//
// M1's bytes leave flight (it was retransmitted: genuinely in flight);
// M3's must not (parked, its bytes are not in flight). Flight must end
// at exactly M2's size, and a duplicate SACK must leave the T3 timer
// armed so M2 is eventually retransmitted.
func TestSackAfterT3KeepsFlightAccounting(t *testing.T) {
	for _, mode := range []struct {
		name  string
		idata bool
	}{{"data", false}, {"idata", true}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := Config{HBDisable: true, IData: mode.idata}
			k, sa, sb, net := pair(37, lan(), cfg)
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
				if a.useIData != mode.idata {
					t.Errorf("useIData = %v, want %v", a.useIData, mode.idata)
				}
				// Blackhole the network: every send from here on is
				// dropped, so the association state only changes through
				// the calls below.
				net.SetSubnetDown(0, true)

				const msg = 1400 // one chunk per message, under the MTU
				tsn0 := a.nextTSN
				data := make([]byte, msg)
				for i := 0; i < 3; i++ {
					if err := a.trySend(0, 0, data); err != nil {
						t.Errorf("send %d: %v", i, err)
					}
				}
				pt := a.paths[a.primary]
				if pt.flight != 3*msg {
					t.Fatalf("flight after sends = %d, want %d", pt.flight, 3*msg)
				}

				// T3: everything outstanding is requeued and flight is
				// zeroed; the collapsed window (1 MTU) lets the immediate
				// retransmission pass re-send M1 and M2 but parks M3.
				a.onT3(a.primary)
				if pt.flight != 2*msg {
					t.Fatalf("flight after T3 = %d, want %d (M1+M2 retransmitted, M3 parked)",
						pt.flight, 2*msg)
				}
				if a.rtxQ.Len() != 1 || a.rtxQ.Front().c.TSN != tsn0.Add(2) {
					t.Fatalf("rtxQ after T3 = %d chunks, want exactly the parked M3", a.rtxQ.Len())
				}

				// SACK: cum acks M1 (in flight — its bytes leave), the
				// gap block acks the parked M3 (not in flight — its bytes
				// must not leave twice). M2 stays outstanding.
				sack := &chunk{
					Type:      ctSack,
					CumTSNAck: tsn0,
					ARwnd:     200000,
					Gaps:      []gapBlock{{Start: 2, End: 2}},
				}
				a.processSack(sack)
				if pt.flight != msg {
					t.Errorf("flight after SACK = %d, want %d (M2 still outstanding)",
						pt.flight, msg)
				}
				inFlightSum := 0
				for i := 0; i < a.inflight.Len(); i++ {
					if oc := a.inflight.At(i); oc.inFlight {
						inFlightSum += oc.size
					}
				}
				if pt.flight != inFlightSum {
					t.Errorf("flight = %d but inFlight chunks sum to %d", pt.flight, inFlightSum)
				}

				// Drain the sacked M3 from the rtx queue, then process a
				// duplicate SACK: with M2's bytes stolen, flight==0 and
				// rtxQ empty would stop the T3 timer and strand M2.
				a.transmit()
				a.processSack(sack)
				if !pt.t3.Active() {
					t.Error("T3 timer stopped with M2 still unacknowledged: M2 is stranded")
				}

				cli.KillAssoc(id)
				for _, sid := range srv.Assocs() {
					srv.KillAssoc(sid)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
