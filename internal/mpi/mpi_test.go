package mpi

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/fifo"
	"repro/internal/mpi/rpi"
	"repro/internal/sim"
	"repro/internal/testenv"
	"repro/internal/wire"
)

// loopRPI is a transport-free RPI: messages hop between processes via
// kernel events with a fixed delay. It isolates the middleware's
// matching, protocol and progression logic from any real transport.
// Every message takes the same delay, so arrivals come in send order:
// each module keeps its in-flight messages and its due send completions
// in FIFOs popped by callbacks bound once, which keeps the fabric itself
// allocation-free in steady state.
type loopRPI struct {
	k        *sim.Kernel
	rank     int
	fabric   *loopFabric
	deliver  rpi.Delivery
	cond     *sim.Cond
	sent     int64
	inflight fifo.Queue[loopMsg]
	queued   fifo.Queue[func()]
	arriveFn func()
	doneFn   func()
}

type loopMsg struct {
	env  rpi.Envelope
	body []byte
}

type loopFabric struct {
	modules []*loopRPI
	delay   time.Duration
}

func newLoopFabric(k *sim.Kernel, n int, delay time.Duration) *loopFabric {
	f := &loopFabric{delay: delay}
	for i := 0; i < n; i++ {
		l := &loopRPI{k: k, rank: i, fabric: f, cond: sim.NewCond(k)}
		l.arriveFn, l.doneFn = l.arrive, l.sendDone
		f.modules = append(f.modules, l)
	}
	return f
}

func (l *loopRPI) Init(p *sim.Proc) error     { return nil }
func (l *loopRPI) SetDelivery(d rpi.Delivery) { l.deliver = d }
func (l *loopRPI) Finalize(p *sim.Proc)       {}
func (l *loopRPI) Counters() rpi.Counters     { return rpi.Counters{"sent": l.sent} }

func (l *loopRPI) Send(dest int, env rpi.Envelope, body []byte, onQueued func()) {
	l.sent++
	var cp []byte
	if len(body) > 0 {
		cp = wire.GetBuf(len(body))
		copy(cp, body)
	}
	target := l.fabric.modules[dest]
	target.inflight.Push(loopMsg{env, cp})
	l.k.After(l.fabric.delay, target.arriveFn)
	if onQueued != nil {
		l.queued.Push(onQueued)
		l.k.After(0, l.doneFn)
	}
}

// arrive delivers the oldest in-flight message. Delivery copies the body
// out, so the copy goes back to the pool as rpi.Engine.Complete does.
func (l *loopRPI) arrive() {
	m := l.inflight.Pop()
	l.deliver(m.env, m.body)
	wire.PutBuf(m.body)
	l.cond.Broadcast()
}

func (l *loopRPI) sendDone() {
	l.queued.Pop()()
	l.cond.Broadcast()
}

func (l *loopRPI) Advance(p *sim.Proc, block bool) error {
	if block {
		l.cond.Wait(p)
	}
	return nil
}

func (l *loopRPI) Abort(p *sim.Proc) {}

// run spawns n middleware processes over a loop fabric and executes fn
// on each.
func run(t *testing.T, n int, fn func(pr *Process, comm *Comm) error) {
	t.Helper()
	k := sim.New(1)
	fabric := newLoopFabric(k, n, 100*time.Microsecond)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		rank := i
		k.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
			pr := NewProcess(p, rank, n, fabric.modules[rank], 0)
			comm, err := pr.Init()
			if err != nil {
				errs[rank] = err
				return
			}
			errs[rank] = fn(pr, comm)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestEagerShortDelivery(t *testing.T) {
	run(t, 2, func(pr *Process, comm *Comm) error {
		if comm.Rank() == 0 {
			return comm.Send(1, 9, []byte("short and eager"))
		}
		buf := make([]byte, 64)
		st, err := comm.Recv(0, 9, buf)
		if err != nil {
			return err
		}
		if st.Tag != 9 || st.Source != 0 || string(buf[:st.Count]) != "short and eager" {
			return fmt.Errorf("bad status/body: %+v %q", st, buf[:st.Count])
		}
		return nil
	})
}

func TestSameTRCOrderingPreserved(t *testing.T) {
	const n = 50
	run(t, 2, func(pr *Process, comm *Comm) error {
		if comm.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := comm.Send(1, 4, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, 1)
		for i := 0; i < n; i++ {
			if _, err := comm.Recv(0, 4, buf); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("message %d overtaken by %d (same TRC must stay ordered)", i, buf[0])
			}
		}
		return nil
	})
}

func TestUnexpectedQueueFIFOPerTRC(t *testing.T) {
	run(t, 2, func(pr *Process, comm *Comm) error {
		if comm.Rank() == 0 {
			for i := 0; i < 10; i++ {
				if err := comm.Send(1, i%2, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		// Let everything become unexpected.
		pr.P.Sleep(50 * time.Millisecond)
		buf := make([]byte, 1)
		// Tag 1 messages must come out 1,3,5,... in order even though
		// tag 0 messages interleaved in the queue.
		for _, want := range []byte{1, 3, 5, 7, 9} {
			if _, err := comm.Recv(0, 1, buf); err != nil {
				return err
			}
			if buf[0] != want {
				return fmt.Errorf("tag 1: got %d want %d", buf[0], want)
			}
		}
		for _, want := range []byte{0, 2, 4, 6, 8} {
			if _, err := comm.Recv(0, 0, buf); err != nil {
				return err
			}
			if buf[0] != want {
				return fmt.Errorf("tag 0: got %d want %d", buf[0], want)
			}
		}
		return nil
	})
}

func TestWildcardMatchesFirstArrival(t *testing.T) {
	run(t, 2, func(pr *Process, comm *Comm) error {
		if comm.Rank() == 0 {
			if err := comm.Send(1, 5, []byte("five")); err != nil {
				return err
			}
			return comm.Send(1, 6, []byte("six"))
		}
		pr.P.Sleep(50 * time.Millisecond)
		buf := make([]byte, 8)
		st, err := comm.Recv(AnySource, AnyTag, buf)
		if err != nil {
			return err
		}
		if st.Tag != 5 {
			return fmt.Errorf("wildcard matched tag %d, want first arrival (5)", st.Tag)
		}
		return nil
	})
}

func TestPostedReceiveOrderRespected(t *testing.T) {
	run(t, 2, func(pr *Process, comm *Comm) error {
		if comm.Rank() == 0 {
			pr.P.Sleep(10 * time.Millisecond)
			return comm.Send(1, AnyTagValueForTest, nil)
		}
		// Two receives that both match the incoming message: the one
		// posted first must win.
		b1 := make([]byte, 4)
		b2 := make([]byte, 4)
		r1, err := comm.Irecv(0, AnyTag, b1)
		if err != nil {
			return err
		}
		r2, err := comm.Irecv(0, AnyTagValueForTest, b2)
		if err != nil {
			return err
		}
		i, _, err := comm.WaitAny(r1, r2)
		if err != nil {
			return err
		}
		if i != 0 {
			return fmt.Errorf("second-posted receive matched first")
		}
		_ = r2
		return nil
	})
}

// AnyTagValueForTest is an ordinary tag used by the posted-order test.
const AnyTagValueForTest = 77

func TestRendezvousLongMessage(t *testing.T) {
	const size = 128 << 10 // above the default eager limit
	run(t, 2, func(pr *Process, comm *Comm) error {
		if comm.Rank() == 0 {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i)
			}
			req, err := comm.Isend(1, 0, data)
			if err != nil {
				return err
			}
			// Rendezvous: must not complete before the receiver posts.
			done, _, _ := comm.Test(req)
			if done {
				return fmt.Errorf("long send completed before matching receive was posted")
			}
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
		for i := range buf {
			if buf[i] != byte(i) {
				return fmt.Errorf("corrupt at %d", i)
			}
		}
		return nil
	})
}

func TestSyncSendWaitsForMatch(t *testing.T) {
	run(t, 2, func(pr *Process, comm *Comm) error {
		if comm.Rank() == 0 {
			t0 := pr.P.Now()
			if err := comm.Ssend(1, 0, []byte("sync")); err != nil {
				return err
			}
			if pr.P.Now()-t0 < 30*time.Millisecond {
				return fmt.Errorf("Ssend returned before the receive was posted")
			}
			return nil
		}
		pr.P.Sleep(40 * time.Millisecond)
		buf := make([]byte, 8)
		_, err := comm.Recv(0, 0, buf)
		return err
	})
}

func TestTruncation(t *testing.T) {
	run(t, 2, func(pr *Process, comm *Comm) error {
		if comm.Rank() == 0 {
			return comm.Send(1, 0, []byte("0123456789"))
		}
		buf := make([]byte, 4)
		st, err := comm.Recv(0, 0, buf)
		if err != ErrTruncated {
			return fmt.Errorf("err = %v, want ErrTruncated", err)
		}
		if st.Count != 4 || !bytes.Equal(buf, []byte("0123")) {
			return fmt.Errorf("partial copy wrong: %q", buf[:st.Count])
		}
		return nil
	})
}

func TestIprobeDoesNotConsume(t *testing.T) {
	run(t, 2, func(pr *Process, comm *Comm) error {
		if comm.Rank() == 0 {
			return comm.Send(1, 3, []byte("peek"))
		}
		pr.P.Sleep(20 * time.Millisecond)
		for i := 0; i < 3; i++ {
			ok, st, err := comm.Iprobe(0, 3)
			if err != nil {
				return err
			}
			if !ok || st.Count != 4 {
				return fmt.Errorf("iprobe %d: ok=%v st=%+v", i, ok, st)
			}
		}
		buf := make([]byte, 8)
		st, err := comm.Recv(0, 3, buf)
		if err != nil {
			return err
		}
		if string(buf[:st.Count]) != "peek" {
			return fmt.Errorf("body %q", buf[:st.Count])
		}
		return nil
	})
}

func TestWaitAllMixed(t *testing.T) {
	run(t, 2, func(pr *Process, comm *Comm) error {
		if comm.Rank() == 0 {
			var reqs []*Request
			for i := 0; i < 5; i++ {
				r, err := comm.Isend(1, i, []byte{byte(i)})
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			return comm.WaitAll(reqs...)
		}
		buf := make([]byte, 1)
		for i := 4; i >= 0; i-- {
			if _, err := comm.Recv(0, i, buf); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestStatsCounters(t *testing.T) {
	run(t, 2, func(pr *Process, comm *Comm) error {
		if comm.Rank() == 0 {
			if err := comm.Send(1, 0, []byte("a")); err != nil {
				return err
			}
			return comm.Ssend(1, 0, []byte("b"))
		}
		pr.P.Sleep(10 * time.Millisecond)
		buf := make([]byte, 4)
		if _, err := comm.Recv(0, 0, buf); err != nil {
			return err
		}
		if _, err := comm.Recv(0, 0, buf); err != nil {
			return err
		}
		if pr.Stats.UnexpectedMsgs == 0 {
			return fmt.Errorf("expected unexpected-message accounting")
		}
		if pr.Stats.RecvsPosted != 2 {
			return fmt.Errorf("RecvsPosted = %d", pr.Stats.RecvsPosted)
		}
		return nil
	})
}

func TestFinalizeTwice(t *testing.T) {
	run(t, 2, func(pr *Process, comm *Comm) error {
		if err := pr.Finalize(); err != nil {
			return err
		}
		if err := pr.Finalize(); err != ErrFinalized {
			return fmt.Errorf("second Finalize: %v, want ErrFinalized", err)
		}
		return nil
	})
}

// TestUnexpectedMatchAllocFree pins the unexpected-message path: a body
// that lands before its receive is posted is buffered in a wire-pool
// copy, and the receive that matches it from the queue returns the copy
// to the pool, so once warm the round allocates nothing.
func TestUnexpectedMatchAllocFree(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	for _, size := range []int{64, 4 << 10} {
		run(t, 1, func(pr *Process, comm *Comm) error {
			msg, buf := bytes.Repeat([]byte{5}, size), make([]byte, size)
			var failed error
			round := func() {
				// Send to self, then sleep past the fabric delay: the
				// body is queued as unexpected before Recv is posted.
				if err := comm.Send(0, 1, msg); err != nil && failed == nil {
					failed = err
				}
				pr.P.Sleep(time.Millisecond)
				if _, err := comm.Recv(0, 1, buf); err != nil && failed == nil {
					failed = err
				}
			}
			for i := 0; i < 100; i++ {
				round()
			}
			matched := pr.Stats.MatchedFromQueue
			allocs := testing.AllocsPerRun(1000, round)
			if failed != nil {
				return failed
			}
			if got := pr.Stats.MatchedFromQueue - matched; got != 1001 {
				return fmt.Errorf("%d of 1001 receives matched from the unexpected queue", got)
			}
			if !bytes.Equal(buf, msg) {
				return fmt.Errorf("body mismatch")
			}
			if allocs != 0 {
				return fmt.Errorf("%d B: unexpected send+match allocates %.2f times per round, want 0", size, allocs)
			}
			return nil
		})
	}
}
