// Backend conformance suite: every RPI module — TCP byte-stream, SCTP
// one-to-many, SCTP one-to-one — must provide identical MPI semantics
// through the shared engine, differing only in transport dynamics and
// cost. Each test runs once per backend over the same program.
package rpi_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpi/rpi"
	"repro/internal/mpi/sctp1to1rpi"
	"repro/internal/mpi/sctprpi"
	"repro/internal/mpi/tcprpi"
	"repro/internal/netsim"
	"repro/internal/sctp"
	"repro/internal/sim"
	"repro/internal/tcp"
)

type backend struct {
	name  string
	build func(k *sim.Kernel, net *netsim.Network, n int) []rpi.RPI
}

func makeNodes(net *netsim.Network, n int) ([]netsim.Addr, [][]netsim.Addr, []*netsim.Node) {
	addrs := make([]netsim.Addr, n)
	lists := make([][]netsim.Addr, n)
	nodes := make([]*netsim.Node, n)
	for i := 0; i < n; i++ {
		nd := net.NewNode(fmt.Sprintf("n%d", i))
		addrs[i] = netsim.MakeAddr(0, i+1)
		nd.AddInterface(addrs[i])
		lists[i] = nd.Addrs()
		nodes[i] = nd
	}
	return addrs, lists, nodes
}

func backends() []backend {
	return []backend{
		backendWith("tcp", sctp.Config{}),
		backendWith("sctp", sctp.Config{}),
		backendWith("sctp1to1", sctp.Config{}),
	}
}

// backendWith builds one backend whose SCTP stacks use cfg (ignored by
// the TCP module, which runs the LAM setting NoDelay).
func backendWith(name string, cfg sctp.Config) backend {
	switch name {
	case "tcp":
		return backend{name, func(k *sim.Kernel, net *netsim.Network, n int) []rpi.RPI {
			addrs, _, nodes := makeNodes(net, n)
			barrier := rpi.NewBarrier(k, n)
			mods := make([]rpi.RPI, n)
			for i, nd := range nodes {
				mods[i] = tcprpi.New(tcp.NewStack(nd, tcp.Config{NoDelay: true}), i, addrs, barrier, tcprpi.Options{})
			}
			return mods
		}}
	case "sctp":
		return backend{name, func(k *sim.Kernel, net *netsim.Network, n int) []rpi.RPI {
			_, lists, nodes := makeNodes(net, n)
			barrier := rpi.NewBarrier(k, n)
			mods := make([]rpi.RPI, n)
			for i, nd := range nodes {
				mods[i] = sctprpi.New(sctp.NewStack(nd, cfg), i, lists, barrier, sctprpi.Options{})
			}
			return mods
		}}
	default: // sctp1to1
		return backend{name, func(k *sim.Kernel, net *netsim.Network, n int) []rpi.RPI {
			_, lists, nodes := makeNodes(net, n)
			barrier := rpi.NewBarrier(k, n)
			mods := make([]rpi.RPI, n)
			for i, nd := range nodes {
				mods[i] = sctp1to1rpi.New(sctp.NewStack(nd, cfg), i, lists, barrier, sctp1to1rpi.Options{})
			}
			return mods
		}}
	}
}

// runWorld runs fn on every rank of an n-process world over backend b
// and returns the modules for counter inspection.
func runWorld(t *testing.T, b backend, n int, loss float64,
	fn func(pr *mpi.Process, comm *mpi.Comm) error) []rpi.RPI {
	t.Helper()
	k := sim.New(1)
	net := netsim.NewNetwork(k)
	lp := netsim.DefaultLinkParams()
	lp.LossRate = loss
	net.SetDefaultLinkParams(lp)
	modules := b.build(k, net, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		rank := i
		k.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
			pr := mpi.NewProcess(p, rank, n, modules[rank], 0)
			comm, err := pr.Init()
			if err != nil {
				errs[rank] = err
				return
			}
			if err := fn(pr, comm); err != nil {
				errs[rank] = err
			}
			if err := pr.Finalize(); err != nil && errs[rank] == nil {
				errs[rank] = err
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("%s: %v", b.name, err)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("%s rank %d: %v", b.name, r, err)
		}
	}
	checkPooledLeaks(t, b)
	return modules
}

// checkPooledLeaks asserts that every pooled wire buffer was released
// by the time the kernel quiesced. A nonzero count means some path
// (loss, retransmit, session kill) dropped a packet without Release,
// which would slowly poison the buffer pool on long runs.
func checkPooledLeaks(t *testing.T, b backend) {
	t.Helper()
	if n := netsim.LivePooledPackets(); n != 0 {
		t.Fatalf("%s: %d pooled packet(s) still live at teardown; a delivery or drop path is missing a Release", b.name, n)
	}
}

// runWorldMods is runWorld with the modules exposed to the per-rank
// program, so recovery tests can kill transport sessions mid-protocol.
func runWorldMods(t *testing.T, b backend, n int, loss float64,
	fn func(mods []rpi.RPI, pr *mpi.Process, comm *mpi.Comm) error) {
	t.Helper()
	k := sim.New(1)
	net := netsim.NewNetwork(k)
	lp := netsim.DefaultLinkParams()
	lp.LossRate = loss
	net.SetDefaultLinkParams(lp)
	modules := b.build(k, net, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		rank := i
		k.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
			pr := mpi.NewProcess(p, rank, n, modules[rank], 0)
			comm, err := pr.Init()
			if err != nil {
				errs[rank] = err
				return
			}
			if err := fn(modules, pr, comm); err != nil {
				errs[rank] = err
			}
			if err := pr.Finalize(); err != nil && errs[rank] == nil {
				errs[rank] = err
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("%s: %v", b.name, err)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("%s rank %d: %v", b.name, r, err)
		}
	}
	checkPooledLeaks(t, b)
}

// kill destroys rank's transport session to peer, as the chaos
// harness's AssocKill fault does. Every backend must support it.
func kill(t *testing.T, mods []rpi.RPI, rank, peer int) {
	t.Helper()
	k, ok := mods[rank].(interface{ KillSession(peer int) })
	if !ok {
		t.Fatalf("module %T does not implement KillSession", mods[rank])
	}
	k.KillSession(peer)
}

func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + salt
	}
	return b
}

func checkPattern(buf []byte, salt byte) error {
	for i, v := range buf {
		if v != byte(i)*7+salt {
			return fmt.Errorf("corrupt at %d: got %d", i, v)
		}
	}
	return nil
}

// A send buffer may be reused as soon as comm.Send returns, even while
// the message still waits behind earlier ones in the module's transmit
// queue: eager sends complete when the module has its own copy. Rank 0
// overwrites its one buffer right after every Send of a burst far
// larger than the transport send buffer, so most messages are still
// queued when their bytes are clobbered.
func TestConformanceReuseAfterSend(t *testing.T) {
	const size, msgs = 30 << 10, 24
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			runWorld(t, b, 2, 0, func(pr *mpi.Process, comm *mpi.Comm) error {
				buf := make([]byte, size)
				if comm.Rank() == 0 {
					for i := 0; i < msgs; i++ {
						copy(buf, pattern(size, byte(i)))
						if err := comm.Send(1, 0, buf); err != nil {
							return err
						}
						for j := range buf {
							buf[j] = 0xee
						}
					}
					return nil
				}
				for i := 0; i < msgs; i++ {
					if _, err := comm.Recv(0, 0, buf); err != nil {
						return err
					}
					if err := checkPattern(buf, byte(i)); err != nil {
						return fmt.Errorf("message %d: %w", i, err)
					}
				}
				return nil
			})
		})
	}
}

// Short eager messages must arrive intact and in order.
func TestConformanceShortEager(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			runWorld(t, b, 2, 0, func(pr *mpi.Process, comm *mpi.Comm) error {
				if comm.Rank() == 0 {
					for i := 0; i < 5; i++ {
						if err := comm.Send(1, 0, pattern(1000, byte(i))); err != nil {
							return err
						}
					}
					return nil
				}
				buf := make([]byte, 1000)
				for i := 0; i < 5; i++ {
					st, err := comm.Recv(0, 0, buf)
					if err != nil {
						return err
					}
					if st.Count != 1000 {
						return fmt.Errorf("count %d", st.Count)
					}
					if err := checkPattern(buf, byte(i)); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// Synchronous sends must not complete before the matching receive.
func TestConformanceSsend(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			runWorld(t, b, 2, 0, func(pr *mpi.Process, comm *mpi.Comm) error {
				if comm.Rank() == 0 {
					if err := comm.Ssend(1, 1, pattern(512, 3)); err != nil {
						return err
					}
					buf := make([]byte, 512)
					_, err := comm.Recv(1, 2, buf)
					if err != nil {
						return err
					}
					return checkPattern(buf, 9)
				}
				buf := make([]byte, 512)
				if _, err := comm.Recv(0, 1, buf); err != nil {
					return err
				}
				if err := checkPattern(buf, 3); err != nil {
					return err
				}
				return comm.Ssend(0, 2, pattern(512, 9))
			})
		})
	}
}

// Long messages cross the eager limit into the rendezvous path; content
// must survive middleware chunking and reassembly.
func TestConformanceLongRendezvous(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			runWorld(t, b, 2, 0, func(pr *mpi.Process, comm *mpi.Comm) error {
				const size = 300 << 10
				if comm.Rank() == 0 {
					return comm.Send(1, 0, pattern(size, 5))
				}
				buf := make([]byte, size)
				st, err := comm.Recv(0, 0, buf)
				if err != nil {
					return err
				}
				if st.Count != size {
					return fmt.Errorf("count %d", st.Count)
				}
				return checkPattern(buf, 5)
			})
		})
	}
}

// Wildcard receives (AnySource, AnyTag) must match and report the true
// source and tag.
func TestConformanceWildcards(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			const n = 4
			runWorld(t, b, n, 0, func(pr *mpi.Process, comm *mpi.Comm) error {
				if comm.Rank() != 0 {
					return comm.Send(0, 10+comm.Rank(), pattern(64, byte(comm.Rank())))
				}
				seen := map[int]bool{}
				buf := make([]byte, 64)
				for i := 0; i < n-1; i++ {
					st, err := comm.Recv(mpi.AnySource, mpi.AnyTag, buf)
					if err != nil {
						return err
					}
					if st.Tag != 10+st.Source {
						return fmt.Errorf("tag %d from %d", st.Tag, st.Source)
					}
					if err := checkPattern(buf, byte(st.Source)); err != nil {
						return err
					}
					seen[st.Source] = true
				}
				if len(seen) != n-1 {
					return fmt.Errorf("sources %v", seen)
				}
				return nil
			})
		})
	}
}

// Messages arriving before their receive is posted must buffer as
// unexpected and match later receives in any posting order.
func TestConformanceUnexpectedBuffering(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			runWorld(t, b, 2, 0, func(pr *mpi.Process, comm *mpi.Comm) error {
				if comm.Rank() == 0 {
					for _, tag := range []int{3, 2, 1} {
						if err := comm.Send(1, tag, pattern(256, byte(tag))); err != nil {
							return err
						}
					}
					return nil
				}
				// Receive in the opposite order: tags 3 and 2 arrive
				// first and must sit in the unexpected queue while tag 1
				// is matched.
				buf := make([]byte, 256)
				for _, tag := range []int{1, 2, 3} {
					if _, err := comm.Recv(0, tag, buf); err != nil {
						return err
					}
					if err := checkPattern(buf, byte(tag)); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// Messages with the same (tag, rank, context) must be received in send
// order — MPI's non-overtaking rule, which the SCTP modules must uphold
// even while spreading different TRCs across streams.
func TestConformanceSameTRCOrdering(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			runWorld(t, b, 2, 0, func(pr *mpi.Process, comm *mpi.Comm) error {
				const rounds = 50
				if comm.Rank() == 0 {
					for i := 0; i < rounds; i++ {
						if err := comm.Send(1, 5, []byte{byte(i)}); err != nil {
							return err
						}
					}
					return nil
				}
				buf := make([]byte, 1)
				for i := 0; i < rounds; i++ {
					if _, err := comm.Recv(0, 5, buf); err != nil {
						return err
					}
					if buf[0] != byte(i) {
						return fmt.Errorf("message %d arrived at slot %d", buf[0], i)
					}
				}
				return nil
			})
		})
	}
}

// A buffered eager send followed immediately by Finalize must still be
// delivered: Finalize drains in-flight traffic before teardown.
func TestConformanceFinalizeDrains(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			runWorld(t, b, 2, 0, func(pr *mpi.Process, comm *mpi.Comm) error {
				if comm.Rank() == 0 {
					// Send returns once buffered; the runWorld harness
					// calls Finalize right after we return.
					return comm.Send(1, 7, pattern(2048, 1))
				}
				buf := make([]byte, 2048)
				if _, err := comm.Recv(0, 7, buf); err != nil {
					return err
				}
				return checkPattern(buf, 1)
			})
		})
	}
}

// All of the above must hold under packet loss (retransmission paths).
func TestConformanceUnderLoss(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			runWorld(t, b, 2, 0.02, func(pr *mpi.Process, comm *mpi.Comm) error {
				sizes := []int{100, 30 << 10, 100 << 10}
				if comm.Rank() == 0 {
					for i, sz := range sizes {
						if err := comm.Send(1, i, pattern(sz, byte(sz))); err != nil {
							return err
						}
					}
					return nil
				}
				for i, sz := range sizes {
					buf := make([]byte, sz)
					if _, err := comm.Recv(0, i, buf); err != nil {
						return err
					}
					if err := checkPattern(buf, byte(sz)); err != nil {
						return fmt.Errorf("size %d: %w", sz, err)
					}
				}
				return nil
			})
		})
	}
}

// A session killed mid-rendezvous must recover: the sender posts a
// long (rendezvous) Isend, its transport session dies before the
// handshake can finish, and exactly-once replay across the reconnect
// must still deliver the full payload once the receiver posts.
func TestConformanceKillMidRendezvous(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			runWorldMods(t, b, 2, 0, func(mods []rpi.RPI, pr *mpi.Process, comm *mpi.Comm) error {
				const size = 300 << 10
				if comm.Rank() == 0 {
					req, err := comm.Isend(1, 0, pattern(size, 5))
					if err != nil {
						return err
					}
					// The rendezvous request is in flight (or queued);
					// killing the session now forces the recovery layer to
					// redial and replay it.
					kill(t, mods, 0, 1)
					_, err = comm.Wait(req)
					return err
				}
				pr.P.Sleep(20 * time.Millisecond)
				buf := make([]byte, size)
				st, err := comm.Recv(0, 0, buf)
				if err != nil {
					return err
				}
				if st.Count != size {
					return fmt.Errorf("count %d", st.Count)
				}
				return checkPattern(buf, 5)
			})
		})
	}
}

// A session killed mid-handshake must recover: the synchronous-send
// handshake (KindSync out, KindSyncAck back) is interrupted on both
// sides — the sender kills its session right after posting, and the
// receiver kills its own side before posting the receive — so the
// reconnect races the handshake in both directions.
func TestConformanceKillMidHandshake(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			runWorldMods(t, b, 2, 0, func(mods []rpi.RPI, pr *mpi.Process, comm *mpi.Comm) error {
				if comm.Rank() == 0 {
					req, err := comm.Issend(1, 1, pattern(512, 3))
					if err != nil {
						return err
					}
					kill(t, mods, 0, 1)
					_, err = comm.Wait(req)
					return err
				}
				pr.P.Sleep(5 * time.Millisecond)
				kill(t, mods, 1, 0)
				buf := make([]byte, 512)
				if _, err := comm.Recv(0, 1, buf); err != nil {
					return err
				}
				return checkPattern(buf, 3)
			})
		})
	}
}

// Counter iteration must be deterministic: Keys() sorted, Format()
// stable, and the transport-specific keys present.
func TestConformanceCounters(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			modules := runWorld(t, b, 2, 0, func(pr *mpi.Process, comm *mpi.Comm) error {
				if comm.Rank() == 0 {
					return comm.Send(1, 0, pattern(1000, 0))
				}
				buf := make([]byte, 1000)
				_, err := comm.Recv(0, 0, buf)
				return err
			})
			for r, m := range modules {
				c := m.Counters()
				keys := c.Keys()
				if !sort.StringsAreSorted(keys) {
					t.Fatalf("rank %d keys not sorted: %v", r, keys)
				}
				if c.Format() != c.Format() {
					t.Fatalf("rank %d Format not stable", r)
				}
				if c["msgs_sent"] == 0 {
					t.Errorf("rank %d msgs_sent = 0 (keys %v)", r, keys)
				}
			}
		})
	}
}
