package core

import (
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpi/rpi"
)

// TestIdleMultihomedSurvivesDeadSubnet: with subnet 0 down, heartbeats
// to each peer's first address go unanswered while the two other paths
// answer theirs. Over 20 idle virtual minutes the dead-path misses must
// not add up to an association abort (RFC 4960 §8.1: a HEARTBEAT ACK
// clears the association error count), so the message sent after the
// idle spell still arrives on a live path.
func TestIdleMultihomedSurvivesDeadSubnet(t *testing.T) {
	c, err := NewCluster(Options{Procs: 2, Transport: SCTP, IfacesPerNode: 3, Cost: &rpi.CostModel{}})
	if err != nil {
		t.Fatal(err)
	}
	var got string
	c.Start(func(pr *mpi.Process, comm *mpi.Comm) error {
		if comm.Rank() == 0 {
			c.Net.SetSubnetDown(0, true)
			pr.P.Sleep(20 * time.Minute)
			return comm.Send(1, 0, []byte("still here"))
		}
		buf := make([]byte, 16)
		st, err := comm.Recv(0, 0, buf)
		got = string(buf[:st.Count])
		return err
	})
	rep, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got != "still here" {
		t.Fatalf("received %q", got)
	}
	if rep.Elapsed < 20*time.Minute {
		t.Fatalf("run ended at %v, before the idle spell", rep.Elapsed)
	}
}

// TestMultihomedShutdownLeavesDeadPrimary runs examples/multihome's
// program: three NICs per node, subnet 0 (the primary path) goes down
// mid-run. Heartbeats stop once the SHUTDOWN handshake begins, so the
// dead primary is never marked inactive; SHUTDOWN and SHUTDOWN ACK must
// be retransmitted on an alternate path (RFC 4960 §6.4). Sent to the
// primary alone, they back off to RTO.Max until Association.Max.Retrans
// and the run quiesces about seven virtual minutes after the program
// ends. The gap must stay within a few RTOs.
func TestMultihomedShutdownLeavesDeadPrimary(t *testing.T) {
	c, err := NewCluster(Options{Procs: 2, Transport: SCTP, Seed: 3, IfacesPerNode: 3, Cost: &rpi.CostModel{}})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 40
	var programEnd time.Duration
	c.Start(func(pr *mpi.Process, comm *mpi.Comm) error {
		defer func() {
			if now := pr.P.Now(); now > programEnd {
				programEnd = now
			}
		}()
		buf := make([]byte, 4<<10)
		if comm.Rank() == 0 {
			for i := 0; i < rounds; i++ {
				if _, err := comm.Recv(1, 0, buf); err != nil {
					return err
				}
				if i == rounds/2 {
					c.Net.SetSubnetDown(0, true)
				}
			}
			return nil
		}
		for i := 0; i < rounds; i++ {
			if err := comm.Send(0, 0, buf); err != nil {
				return err
			}
			pr.P.Sleep(250 * time.Millisecond)
		}
		return nil
	})
	rep, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	t.Logf("program ends at %v, run quiesces at %v", programEnd, rep.Elapsed)
	if gap := rep.Elapsed - programEnd; gap > 4*time.Second {
		t.Errorf("run quiesced %v after the program ended at %v", gap, programEnd)
	}
}
