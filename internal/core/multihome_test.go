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
