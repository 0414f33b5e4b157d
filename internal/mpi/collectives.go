package mpi

import (
	"encoding/binary"
	"math"

	"repro/internal/mpi/rpi"
	"repro/internal/wire"
)

// Internal collective tags. Collectives run on the communicator's
// collective context (ctx+1), so they can never match user traffic.
const (
	tagBarrier   = 1
	tagBcast     = 2
	tagReduce    = 3
	tagGather    = 4
	tagScatter   = 5
	tagGatherA   = 6
	tagAlltoall  = 7
	tagAllreduce = 12 // 8..11 belong to the variable-count collectives
	tagMcastFB   = 13 // tree replay of an aborted multicast broadcast
)

// Alg selects a communicator's collective algorithm family.
type Alg int

// Collective algorithm families.
const (
	// AlgTree is the scalable default: binomial-tree broadcast and
	// reduce, dissemination barrier, and an allreduce that picks ring
	// (bandwidth-optimal) or recursive doubling (latency-optimal) by
	// message size — O(log N) rounds where the naive family is O(N).
	AlgTree Alg = iota
	// AlgNaive is the linear root-loops-over-ranks ablation (LAM's
	// basic algorithms): every collective serializes through a root.
	// Kept selectable for the O(N)-vs-O(log N) benchmark tables and as
	// the reference implementation the conformance tests compare
	// against.
	AlgNaive
	// AlgMulticast rides the reliable-multicast service for Bcast (and
	// for the fan-out half of Allreduce, after a tree reduce to rank
	// 0): one link-layer multicast reaches every receiver, NAKs repair
	// gaps, and any member death or repair-budget exhaustion degrades
	// the operation to the AlgTree path on the same communicator,
	// replayed exactly-once across the epoch bump. Collectives without
	// a multicast shape — and communicators without a multicast service
	// or narrower than the world — run the AlgTree algorithms.
	AlgMulticast
)

// SetAlg switches the communicator's collective algorithms. It must be
// called symmetrically on every rank (like any collective property).
// New communicators default to AlgTree; Dup and Split inherit.
func (c *Comm) SetAlg(a Alg) { c.alg = a }

// AlgValue returns the communicator's collective algorithm family.
func (c *Comm) AlgValue() Alg { return c.alg }

// Op folds src into acc (acc op= src). Implementations must be
// element-wise over the encoded representation.
type Op func(acc, src []byte)

// Collective scratch buffers come from the wire pool and go back only
// once every receive into them has completed. After a failed crecv the
// receive may still be posted, and the pool is shared by kernels running
// concurrently, so a late delivery could write into a buffer another
// kernel owns; on error paths the scratch is left to the GC instead.

// csend/crecv are point-to-point on the collective context.
func (c *Comm) csend(dest, tag int, data []byte) error {
	w, err := c.worldOf(dest)
	if err != nil {
		return err
	}
	req := c.pr.isend(w, tag, c.ctx+1, data, false)
	_, err = c.pr.waitFree(req)
	return err
}

func (c *Comm) cisend(dest, tag int, data []byte) (*Request, error) {
	w, err := c.worldOf(dest)
	if err != nil {
		return nil, err
	}
	return c.pr.isend(w, tag, c.ctx+1, data, false), nil
}

func (c *Comm) cirecv(src, tag int, buf []byte) (*Request, error) {
	w, err := c.worldOf(src)
	if err != nil {
		return nil, err
	}
	return c.pr.irecv(w, tag, c.ctx+1, buf), nil
}

func (c *Comm) crecv(src, tag int, buf []byte) (Status, error) {
	req, err := c.cirecv(src, tag, buf)
	if err != nil {
		return Status{}, err
	}
	st, err := c.pr.waitFree(req)
	return c.fixStatus(st), err
}

// Barrier blocks until every process in the communicator has entered
// it (dissemination algorithm, log2(n) rounds; linear fan-in/fan-out
// through rank 0 under AlgNaive).
func (c *Comm) Barrier() error {
	n := c.Size()
	if n == 1 {
		return nil
	}
	if c.alg == AlgNaive {
		return c.naiveBarrier()
	}
	me := c.Rank()
	var tok [1]byte
	for k := 1; k < n; k <<= 1 {
		to := (me + k) % n
		from := (me - k + n) % n
		sreq, err := c.cisend(to, tagBarrier, tok[:])
		if err != nil {
			return err
		}
		if _, err := c.crecv(from, tagBarrier, tok[:]); err != nil {
			return err
		}
		if _, err := c.pr.waitFree(sreq); err != nil {
			return err
		}
	}
	return nil
}

// Bcast broadcasts root's data to every process (binomial tree, or a
// linear root loop under AlgNaive). Every caller passes a data slice of
// the same length; non-root slices are overwritten.
func (c *Comm) Bcast(root int, data []byte) error {
	n := c.Size()
	if n == 1 {
		return nil
	}
	if c.alg == AlgNaive {
		return c.naiveBcast(root, data)
	}
	if c.alg == AlgMulticast && c.mcastEligible() {
		return c.mcastBcast(root, data)
	}
	return c.treeBcast(root, tagBcast, data)
}

// treeBcast is the binomial-tree broadcast body, parameterized by tag
// so the multicast fallback replay runs on its own tag and can never
// match a regular tree broadcast's traffic.
func (c *Comm) treeBcast(root, tag int, data []byte) error {
	n := c.Size()
	rel := (c.Rank() - root + n) % n
	// Receive from the parent: the node that differs in our lowest set
	// bit.
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := ((rel ^ mask) + root) % n
			if _, err := c.crecv(src, tag, data); err != nil {
				return err
			}
			break
		}
		mask <<= 1
	}
	// Forward to children below the bit where we received.
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := ((rel + mask) + root) % n
			if err := c.csend(dst, tag, data); err != nil {
				return err
			}
		}
		mask >>= 1
	}
	return nil
}

// Reduce folds everyone's data into root's acc using op (binomial
// tree, or a linear root loop under AlgNaive). data is each caller's
// contribution; on root, the result is left in data. op must be
// associative and commutative.
func (c *Comm) Reduce(root int, data []byte, op Op) error {
	n := c.Size()
	if n == 1 {
		return nil
	}
	if c.alg == AlgNaive {
		return c.naiveReduce(root, data, op)
	}
	rel := (c.Rank() - root + n) % n
	tmp := wire.GetBuf(len(data))
	for k := 1; k < n; k <<= 1 {
		if rel&k != 0 {
			// Send partial to the sibling and leave.
			wire.PutBuf(tmp)
			dst := ((rel ^ k) + root) % n
			return c.csend(dst, tagReduce, data)
		}
		srcRel := rel | k
		if srcRel < n {
			src := (srcRel + root) % n
			if _, err := c.crecv(src, tagReduce, tmp); err != nil {
				return err
			}
			op(data, tmp)
		}
	}
	wire.PutBuf(tmp)
	return nil
}

// ringMinBytes is the payload size above which Allreduce switches from
// recursive doubling (log2(n) rounds of full-length exchanges) to the
// bandwidth-optimal ring (2(n-1) rounds moving len/n bytes each).
const ringMinBytes = 32 << 10

// Allreduce folds everyone's data with op and leaves the result at
// every rank. Under AlgTree it runs recursive doubling for short
// payloads and a ring reduce-scatter + allgather for long 8-byte-
// aligned ones; under AlgNaive it is a linear reduce to rank 0
// followed by a linear broadcast (LAM's basic algorithm). op must be
// associative and commutative; note that ring and recursive doubling
// apply op in different orders, so floating-point sums may differ in
// the last ulp between sizes.
func (c *Comm) Allreduce(data []byte, op Op) error {
	n := c.Size()
	if n == 1 {
		return nil
	}
	if c.alg == AlgNaive {
		if err := c.naiveReduce(0, data, op); err != nil {
			return err
		}
		return c.naiveBcast(0, data)
	}
	if c.alg == AlgMulticast && c.mcastEligible() {
		// Reduce-to-root then multicast fan-out: the binomial reduce
		// funnels partials to rank 0 and the reliable multicast (with
		// its tree replay on abort) distributes the result.
		if err := c.Reduce(0, data, op); err != nil {
			return err
		}
		return c.mcastBcast(0, data)
	}
	if n > 2 && len(data) >= ringMinBytes && len(data)%8 == 0 && len(data)/8 >= n {
		return c.ringAllreduce(data, op)
	}
	return c.rdAllreduce(data, op)
}

// exchange swaps data with peer on the allreduce tag: post the send,
// block on the receive, then wait for the send before the caller
// mutates data.
func (c *Comm) exchange(peer int, data, tmp []byte) error {
	sreq, err := c.cisend(peer, tagAllreduce, data)
	if err != nil {
		return err
	}
	if _, err := c.crecv(peer, tagAllreduce, tmp); err != nil {
		return err
	}
	_, err = c.pr.waitFree(sreq)
	return err
}

// rdAllreduce is recursive doubling with the MPICH fold for non-power-
// of-two sizes: the first 2*rem ranks pair up so rem of them sit out,
// the surviving pof2 ranks run log2(pof2) butterfly exchanges, and the
// folded ranks get the result back at the end.
func (c *Comm) rdAllreduce(data []byte, op Op) error {
	n := c.Size()
	me := c.Rank()
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	if me < 2*rem && me%2 == 0 {
		// Donate to the odd neighbor, sit out the butterfly and take
		// the result back.
		if err := c.csend(me+1, tagAllreduce, data); err != nil {
			return err
		}
		_, err := c.crecv(me+1, tagAllreduce, data)
		return err
	}
	tmp := wire.GetBuf(len(data))
	newrank := me - rem
	if me < 2*rem {
		if _, err := c.crecv(me-1, tagAllreduce, tmp); err != nil {
			return err
		}
		op(data, tmp)
		newrank = me / 2
	}
	for mask := 1; mask < pof2; mask <<= 1 {
		np := newrank ^ mask
		peer := np + rem
		if np < rem {
			peer = np*2 + 1
		}
		if err := c.exchange(peer, data, tmp); err != nil {
			return err
		}
		op(data, tmp)
	}
	wire.PutBuf(tmp)
	// Return the result to the donor that folded into us.
	if me < 2*rem {
		return c.csend(me-1, tagAllreduce, data)
	}
	return nil
}

// ringAllreduce is the bandwidth-optimal reduce-scatter + allgather
// ring: each of the 2(n-1) steps moves one len/n chunk to the right
// neighbor, so every byte crosses each link at most twice regardless
// of n. Requires len%8 == 0 (chunks stay element-aligned for the
// 8-byte ops) and len/8 >= n.
func (c *Comm) ringAllreduce(data []byte, op Op) error {
	n := c.Size()
	me := c.Rank()
	words := len(data) / 8
	chunk := func(i int) (int, int) { return i * words / n * 8, (i + 1) * words / n * 8 }
	left := (me - 1 + n) % n
	right := (me + 1) % n
	_, maxEnd := chunk(0)
	for i := 1; i < n; i++ {
		lo, hi := chunk(i)
		if hi-lo > maxEnd {
			maxEnd = hi - lo
		}
	}
	tmp := wire.GetBuf(maxEnd)
	// Reduce-scatter: after step s, rank me holds the partial fold of
	// s+1 contributions in chunk (me-s-1+n)%n; after n-1 steps it owns
	// the fully reduced chunk (me+1)%n.
	for s := 0; s < n-1; s++ {
		sc := (me - s + n) % n
		rc := (me - s - 1 + n) % n
		slo, shi := chunk(sc)
		rlo, rhi := chunk(rc)
		sreq, err := c.cisend(right, tagAllreduce, data[slo:shi])
		if err != nil {
			return err
		}
		if _, err := c.crecv(left, tagAllreduce, tmp[:rhi-rlo]); err != nil {
			return err
		}
		if _, err := c.pr.waitFree(sreq); err != nil {
			return err
		}
		op(data[rlo:rhi], tmp[:rhi-rlo])
	}
	wire.PutBuf(tmp)
	// Allgather: circulate the reduced chunks around the ring.
	for s := 0; s < n-1; s++ {
		sc := (me + 1 - s + 2*n) % n
		rc := (me - s + n) % n
		slo, shi := chunk(sc)
		rlo, rhi := chunk(rc)
		sreq, err := c.cisend(right, tagAllreduce, data[slo:shi])
		if err != nil {
			return err
		}
		if _, err := c.crecv(left, tagAllreduce, data[rlo:rhi]); err != nil {
			return err
		}
		if _, err := c.pr.waitFree(sreq); err != nil {
			return err
		}
	}
	return nil
}

// --- naive (linear) ablations ---------------------------------------
//
// These are the O(N) root-serialized algorithms the tree family
// replaces. They stay selectable via SetAlg(AlgNaive) so benchmarks can
// quantify the O(N) vs O(log N) gap and conformance tests have an
// independent reference implementation.

func (c *Comm) naiveBarrier() error {
	n := c.Size()
	var tok [1]byte
	if c.Rank() != 0 {
		if err := c.csend(0, tagBarrier, tok[:]); err != nil {
			return err
		}
		_, err := c.crecv(0, tagBarrier, tok[:])
		return err
	}
	for r := 1; r < n; r++ {
		if _, err := c.crecv(r, tagBarrier, tok[:]); err != nil {
			return err
		}
	}
	for r := 1; r < n; r++ {
		if err := c.csend(r, tagBarrier, tok[:]); err != nil {
			return err
		}
	}
	return nil
}

func (c *Comm) naiveBcast(root int, data []byte) error {
	if c.Rank() != root {
		_, err := c.crecv(root, tagBcast, data)
		return err
	}
	// Post every send before waiting on any (the posting-order audit
	// Gather/Gatherv/naiveReduce/Scatter(v) already passed): a blocking
	// send per rank in turn would serialize n-1 rendezvous round-trips
	// through the root, when the network could run the handshakes
	// concurrently. The payload is read-only here, so all sends may
	// safely alias it.
	reqs := make([]*Request, 0, c.Size()-1)
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		req, err := c.cisend(r, tagBcast, data)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	return c.pr.WaitAll(reqs...)
}

func (c *Comm) naiveReduce(root int, data []byte, op Op) error {
	if c.Rank() != root {
		return c.csend(root, tagReduce, data)
	}
	// Post every receive before waiting on any (the same posting-order
	// fix Gather and Gatherv carry): a blocking recv per rank in turn
	// would hold each sender's rendezvous body until the root reaches
	// its slot, serializing n-1 transfers that the network could
	// overlap. The fold still runs in ascending rank order afterwards,
	// so non-commutative ops see a deterministic reduction order.
	bufs := make([][]byte, c.Size())
	reqs := make([]*Request, 0, c.Size()-1)
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		bufs[r] = make([]byte, len(data))
		req, err := c.cirecv(r, tagReduce, bufs[r])
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	if err := c.pr.WaitAll(reqs...); err != nil {
		return err
	}
	for r := 0; r < c.Size(); r++ {
		if r != root {
			op(data, bufs[r])
		}
	}
	return nil
}

// Gather collects equal-size contributions into recv on root
// (recv length = Size()*len(send)); recv may be nil elsewhere.
func (c *Comm) Gather(root int, send []byte, recv []byte) error {
	if c.Rank() != root {
		return c.csend(root, tagGather, send)
	}
	m := len(send)
	copy(recv[root*m:], send)
	// Post every receive before waiting on any: the n-1 inbound
	// transfers land as they arrive instead of serializing in rank
	// order through the root.
	reqs := make([]*Request, 0, c.Size()-1)
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		req, err := c.cirecv(r, tagGather, recv[r*m:(r+1)*m])
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	return c.pr.WaitAll(reqs...)
}

// Scatter distributes equal-size slices of send (on root) to every
// process's recv.
func (c *Comm) Scatter(root int, send []byte, recv []byte) error {
	m := len(recv)
	if c.Rank() != root {
		_, err := c.crecv(root, tagScatter, recv)
		return err
	}
	var reqs []*Request
	for r := 0; r < c.Size(); r++ {
		if r == root {
			copy(recv, send[r*m:(r+1)*m])
			continue
		}
		req, err := c.cisend(r, tagScatter, send[r*m:(r+1)*m])
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	return c.pr.WaitAll(reqs...)
}

// Allgather concatenates everyone's equal-size contribution at every
// process (gather at 0 + broadcast).
func (c *Comm) Allgather(send []byte, recv []byte) error {
	if err := c.Gather(0, send, recv); err != nil {
		return err
	}
	return c.Bcast(0, recv)
}

// Alltoall sends the r-th equal-size slice of send to rank r and
// receives into the r-th slice of recv. All n-1 receives are posted
// before any send (staggered by distance from me, so no two ranks hit
// the same destination in lockstep), letting every transfer overlap
// instead of running n-1 pairwise phases back to back.
func (c *Comm) Alltoall(send []byte, recv []byte) error {
	n := c.Size()
	m := len(send) / n
	me := c.Rank()
	copy(recv[me*m:(me+1)*m], send[me*m:(me+1)*m])
	reqs := make([]*Request, 0, 2*(n-1))
	for phase := 1; phase < n; phase++ {
		src := (me - phase + n) % n
		req, err := c.cirecv(src, tagAlltoall, recv[src*m:(src+1)*m])
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	for phase := 1; phase < n; phase++ {
		dst := (me + phase) % n
		req, err := c.cisend(dst, tagAlltoall, send[dst*m:(dst+1)*m])
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	return c.pr.WaitAll(reqs...)
}

// Alltoallv is Alltoall with per-rank counts: sendCounts[r] bytes go to
// rank r from offset sendOffs[r]; symmetric for receive. Like Alltoall,
// every receive is posted before any send.
func (c *Comm) Alltoallv(send []byte, sendCounts, sendOffs []int, recv []byte, recvCounts, recvOffs []int) error {
	n := c.Size()
	me := c.Rank()
	copy(recv[recvOffs[me]:recvOffs[me]+recvCounts[me]],
		send[sendOffs[me]:sendOffs[me]+sendCounts[me]])
	reqs := make([]*Request, 0, 2*(n-1))
	for phase := 1; phase < n; phase++ {
		src := (me - phase + n) % n
		req, err := c.cirecv(src, tagAlltoall, recv[recvOffs[src]:recvOffs[src]+recvCounts[src]])
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	for phase := 1; phase < n; phase++ {
		dst := (me + phase) % n
		req, err := c.cisend(dst, tagAlltoall, send[sendOffs[dst]:sendOffs[dst]+sendCounts[dst]])
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	return c.pr.WaitAll(reqs...)
}

// SendRecvColl is SendRecv on the collective context.
func (c *Comm) SendRecvColl(dest int, sendData []byte, src int, recvBuf []byte) (Status, error) {
	wd, err := c.worldOf(dest)
	if err != nil {
		return Status{}, err
	}
	ws, err := c.worldOf(src)
	if err != nil {
		return Status{}, err
	}
	sreq := c.pr.isend(wd, tagAlltoall, c.ctx+1, sendData, false)
	rreq := c.pr.irecv(ws, tagAlltoall, c.ctx+1, recvBuf)
	if _, err := c.pr.waitFree(sreq); err != nil {
		return Status{}, err
	}
	st, err := c.pr.waitFree(rreq)
	return c.fixStatus(st), err
}

// AllgatherI64 is a convenience Allgather over int64 slices (used by
// Split and by benchmarks).
func (c *Comm) AllgatherI64(send []int64, recv []int64) error {
	sb := make([]byte, 8*len(send))
	for i, v := range send {
		binary.LittleEndian.PutUint64(sb[8*i:], uint64(v))
	}
	rb := make([]byte, 8*len(recv))
	if err := c.Allgather(sb, rb); err != nil {
		return err
	}
	for i := range recv {
		recv[i] = int64(binary.LittleEndian.Uint64(rb[8*i:]))
	}
	return nil
}

// --- built-in reduction operators and codecs -------------------------

// OpSumF64 adds float64 vectors element-wise.
func OpSumF64(acc, src []byte) {
	for i := 0; i+8 <= len(acc); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(acc[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(acc[i:], math.Float64bits(a+b))
	}
}

// OpMaxF64 takes the element-wise maximum of float64 vectors.
func OpMaxF64(acc, src []byte) {
	for i := 0; i+8 <= len(acc); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(acc[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		if b > a {
			binary.LittleEndian.PutUint64(acc[i:], math.Float64bits(b))
		}
	}
}

// OpSumI64 adds int64 vectors element-wise.
func OpSumI64(acc, src []byte) {
	for i := 0; i+8 <= len(acc); i += 8 {
		a := int64(binary.LittleEndian.Uint64(acc[i:]))
		b := int64(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(acc[i:], uint64(a+b))
	}
}

// OpMaxI64 takes the element-wise maximum of int64 vectors.
func OpMaxI64(acc, src []byte) {
	for i := 0; i+8 <= len(acc); i += 8 {
		a := int64(binary.LittleEndian.Uint64(acc[i:]))
		b := int64(binary.LittleEndian.Uint64(src[i:]))
		if b > a {
			binary.LittleEndian.PutUint64(acc[i:], uint64(b))
		}
	}
}

// F64Bytes encodes a float64 slice (little endian).
func F64Bytes(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// BytesF64 decodes into a float64 slice of len(b)/8.
func BytesF64(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// I64Bytes encodes an int64 slice (little endian).
func I64Bytes(v []int64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
	return b
}

// BytesI64 decodes into an int64 slice of len(b)/8.
func BytesI64(b []byte) []int64 {
	v := make([]int64, len(b)/8)
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

var _ = rpi.KindShort // keep the import pinned for doc references
