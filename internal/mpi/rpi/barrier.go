package rpi

import "repro/internal/sim"

// Barrier is a reusable n-party rendezvous used during RPI setup (the
// out-of-band role LAM's daemons play during MPI_Init: every process
// must have its listener up before anyone connects, and every
// connection must exist before anyone sends MPI traffic).
type Barrier struct {
	n       int
	arrived int
	gen     int
	cond    *sim.Cond
	wakers  []func()
}

// NewBarrier returns a barrier for n parties.
func NewBarrier(k *sim.Kernel, n int) *Barrier {
	return &Barrier{n: n, cond: sim.NewCond(k)}
}

// Arrive blocks p until all n parties have arrived; the barrier then
// resets for reuse.
func (b *Barrier) Arrive(p *sim.Proc) {
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.complete()
		return
	}
	for b.gen == gen {
		b.cond.Wait(p)
	}
}

// ArriveFunc registers one arrival without blocking and returns a
// completion check. If the rendezvous is still open, wake is retained
// and invoked (in kernel context) when the last party arrives, so a
// caller parked on a different condition can re-check. The caller must
// keep servicing its module until the check holds — this is how a
// process waiting out the BringUp rendezvous keeps answering a
// recovering peer's handshake instead of deadlocking it.
func (b *Barrier) ArriveFunc(wake func()) func() bool {
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.complete()
		return func() bool { return true }
	}
	if wake != nil {
		b.wakers = append(b.wakers, wake)
	}
	return func() bool { return b.gen != gen }
}

func (b *Barrier) complete() {
	b.arrived = 0
	b.gen++
	b.cond.Broadcast()
	for _, w := range b.wakers {
		w()
	}
	b.wakers = nil
}
