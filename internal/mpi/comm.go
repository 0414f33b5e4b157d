package mpi

import (
	"errors"
	"sort"
)

// ErrRank is returned for out-of-range ranks.
var ErrRank = errors.New("mpi: rank out of range")

// Comm is a communicator: an ordered group of world ranks plus a pair
// of context ids (point-to-point and collective), the MPI "context"
// that scopes message matching (paper Figure 2/3).
type Comm struct {
	pr     *Process
	ctx    int32 // point-to-point context; ctx+1 is the collective context
	group  []int // group[commRank] = worldRank
	myrank int   // this process's comm rank
	alg    Alg   // collective algorithm family (AlgTree default)
}

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.myrank }

// Size returns the number of processes in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Context returns the point-to-point context id (for diagnostics).
func (c *Comm) Context() int32 { return c.ctx }

// worldOf translates a comm rank (or AnySource) to a world rank.
func (c *Comm) worldOf(rank int) (int, error) {
	if rank == AnySource {
		return AnySource, nil
	}
	if rank < 0 || rank >= len(c.group) {
		return 0, ErrRank
	}
	return c.group[rank], nil
}

// commOf translates a world rank back to a comm rank for Status.
func (c *Comm) commOf(world int) int {
	for i, w := range c.group {
		if w == world {
			return i
		}
	}
	return world // not in group; should not happen for delivered traffic
}

func (c *Comm) fixStatus(st Status) Status {
	st.Source = c.commOf(st.Source)
	return st
}

// Send is a standard-mode blocking send (eager below the 64 KiB
// threshold, rendezvous above it).
func (c *Comm) Send(dest, tag int, data []byte) error {
	req, err := c.Isend(dest, tag, data)
	if err != nil {
		return err
	}
	_, err = c.pr.waitFree(req)
	return err
}

// Ssend is a synchronous-mode blocking send: it completes only after
// the receiver has matched the message.
func (c *Comm) Ssend(dest, tag int, data []byte) error {
	req, err := c.Issend(dest, tag, data)
	if err != nil {
		return err
	}
	_, err = c.pr.waitFree(req)
	return err
}

// Isend posts a nonblocking standard-mode send.
func (c *Comm) Isend(dest, tag int, data []byte) (*Request, error) {
	w, err := c.worldOf(dest)
	if err != nil || w == AnySource {
		return nil, ErrRank
	}
	return c.pr.isend(w, tag, c.ctx, data, false), nil
}

// Issend posts a nonblocking synchronous-mode send.
func (c *Comm) Issend(dest, tag int, data []byte) (*Request, error) {
	w, err := c.worldOf(dest)
	if err != nil || w == AnySource {
		return nil, ErrRank
	}
	return c.pr.isend(w, tag, c.ctx, data, true), nil
}

// Recv blocks until a matching message arrives. src may be AnySource
// and tag may be AnyTag.
func (c *Comm) Recv(src, tag int, buf []byte) (Status, error) {
	req, err := c.Irecv(src, tag, buf)
	if err != nil {
		return Status{}, err
	}
	st, err := c.pr.waitFree(req)
	return c.fixStatus(st), err
}

// Irecv posts a nonblocking receive.
func (c *Comm) Irecv(src, tag int, buf []byte) (*Request, error) {
	w, err := c.worldOf(src)
	if err != nil {
		return nil, err
	}
	return c.pr.irecv(w, tag, c.ctx, buf), nil
}

// Wait blocks on a request and translates the status source rank.
func (c *Comm) Wait(req *Request) (Status, error) {
	st, err := c.pr.Wait(req)
	return c.fixStatus(st), err
}

// WaitAll blocks on all requests.
func (c *Comm) WaitAll(reqs ...*Request) error { return c.pr.WaitAll(reqs...) }

// WaitAny blocks until one request completes.
func (c *Comm) WaitAny(reqs ...*Request) (int, Status, error) {
	i, st, err := c.pr.WaitAny(reqs...)
	return i, c.fixStatus(st), err
}

// Test polls a request.
func (c *Comm) Test(req *Request) (bool, Status, error) {
	done, st, err := c.pr.Test(req)
	return done, c.fixStatus(st), err
}

// Probe blocks until a matching message can be received.
func (c *Comm) Probe(src, tag int) (Status, error) {
	w, err := c.worldOf(src)
	if err != nil {
		return Status{}, err
	}
	st, err := c.pr.probe(w, tag, c.ctx)
	return c.fixStatus(st), err
}

// Iprobe checks for a matching message without blocking.
func (c *Comm) Iprobe(src, tag int) (bool, Status, error) {
	w, err := c.worldOf(src)
	if err != nil {
		return false, Status{}, err
	}
	ok, st, err := c.pr.iprobe(w, tag, c.ctx)
	return ok, c.fixStatus(st), err
}

// SendRecv exchanges messages with possibly different partners without
// deadlocking.
func (c *Comm) SendRecv(dest, sendTag int, sendData []byte, src, recvTag int, recvBuf []byte) (Status, error) {
	sreq, err := c.Isend(dest, sendTag, sendData)
	if err != nil {
		return Status{}, err
	}
	rreq, err := c.Irecv(src, recvTag, recvBuf)
	if err != nil {
		return Status{}, err
	}
	if _, err := c.pr.waitFree(sreq); err != nil {
		return Status{}, err
	}
	st, err := c.pr.waitFree(rreq)
	return c.fixStatus(st), err
}

// Dup creates a duplicate communicator with fresh contexts. It is
// collective: every process in the communicator must call it in the
// same order, which is how all ranks deterministically agree on the new
// context id without extra traffic (a simplification over LAM's
// context-id negotiation; the paper's PID-mapping discussion covers the
// same design space).
func (c *Comm) Dup() (*Comm, error) {
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	ctx := c.pr.nextCtx
	c.pr.nextCtx += 2
	group := append([]int(nil), c.group...)
	return &Comm{pr: c.pr, ctx: ctx, group: group, myrank: c.myrank, alg: c.alg}, nil
}

// Split partitions the communicator by color, ordering each new group
// by key (then by parent rank). Processes passing color < 0 receive nil
// (MPI_UNDEFINED).
func (c *Comm) Split(color, key int) (*Comm, error) {
	n := c.Size()
	mine := []int64{int64(color), int64(key)}
	all := make([]int64, 2*n)
	if err := c.AllgatherI64(mine, all); err != nil {
		return nil, err
	}
	// Context ids advance identically at every rank, including ranks
	// with color < 0, keeping the deterministic allocator in sync.
	// Each distinct color gets its own context pair.
	maxColor := 0
	for r := 0; r < n; r++ {
		if int(all[2*r]) > maxColor {
			maxColor = int(all[2*r])
		}
	}
	ctx := c.pr.nextCtx
	c.pr.nextCtx += 2 * int32(maxColor+1)
	if color < 0 {
		return nil, nil
	}
	type member struct{ color, key, parentRank int }
	var ms []member
	for r := 0; r < n; r++ {
		if int(all[2*r]) == color {
			ms = append(ms, member{int(all[2*r]), int(all[2*r+1]), r})
		}
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].key != ms[j].key {
			return ms[i].key < ms[j].key
		}
		return ms[i].parentRank < ms[j].parentRank
	})
	group := make([]int, len(ms))
	myrank := -1
	for i, m := range ms {
		group[i] = c.group[m.parentRank]
		if m.parentRank == c.myrank {
			myrank = i
		}
	}
	// Distinct colors share a context id; their groups are disjoint, so
	// matching cannot cross groups.
	return &Comm{pr: c.pr, ctx: ctx + int32(color)*2, group: group, myrank: myrank, alg: c.alg}, nil
}
