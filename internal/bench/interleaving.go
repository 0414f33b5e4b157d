package bench

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sctp"
)

// InterleavingPoint records the small-message latency distribution
// while a bulk transfer is in flight on the same association. The two
// modes differ only in RFC 8260 interleaving: "legacy" runs DATA
// chunks with the FIFO scheduler (a queued small chunk waits behind
// every already-queued bulk fragment), "interleaved" runs I-DATA with
// the priority scheduler (small chunks preempt bulk fragments at chunk
// granularity). Virtual time makes every number exactly reproducible.
type InterleavingPoint struct {
	Mode  string
	P50NS int64
	P99NS int64
	MaxNS int64
}

const (
	interleavingBulk    = 4 << 20 // rendezvous transfer held in flight
	interleavingSmall   = 64      // latency-sensitive probe payload
	interleavingSamples = 64
	interleavingGap     = 100 * time.Microsecond

	// Tag 0 hashes to stream 0, tag 1 to stream 3 (of the 10-stream
	// pool), so the probes and the bulk body ride distinct streams and
	// the scheduler has something to choose between.
	interleavingSmallTag = 0
	interleavingBulkTag  = 1
)

// InterleavingLatency runs the 2-rank overlap experiment over SCTP and
// reports one-way small-message latency percentiles. Rank 0 starts a
// 4 MiB rendezvous send, then paces 64-byte probes carrying virtual
// send timestamps; rank 1 subtracts them from its receive clock. The
// buffer geometry makes the head-of-line cost explicit: the receive
// window caps flight at ~96 KiB, so of the ~1 MiB of bulk admitted to
// the send buffer, most sits *queued but unsent* — exactly the chunks
// a FIFO probe must wait behind and a priority scheduler steps over.
func InterleavingLatency(interleaved bool) (InterleavingPoint, error) {
	pt := InterleavingPoint{Mode: "legacy"}
	if interleaved {
		pt.Mode = "interleaved"
	}
	opts := core.Options{
		Transport:  core.SCTP,
		Procs:      2,
		Seed:       1,
		Deadline:   60 * time.Second,
		SCTPConfig: &sctp.Config{SndBuf: 1 << 20, RcvBuf: 96 << 10},
	}
	if interleaved {
		opts.SCTPIData = true
		opts.SCTPSched = sctp.SchedPriority
	}

	var lats []time.Duration
	_, err := core.Run(opts, func(pr *mpi.Process, comm *mpi.Comm) error {
		if err := comm.Barrier(); err != nil {
			return err
		}
		if comm.Rank() == 0 {
			bulk := make([]byte, interleavingBulk)
			for i := range bulk {
				bulk[i] = byte(i * 7)
			}
			req, err := comm.Isend(1, interleavingBulkTag, bulk)
			if err != nil {
				return err
			}
			probe := make([]byte, interleavingSmall)
			for i := 0; i < interleavingSamples; i++ {
				pr.P.Sleep(interleavingGap)
				binary.BigEndian.PutUint64(probe[:8], uint64(pr.P.Now()))
				binary.BigEndian.PutUint32(probe[8:12], uint32(i))
				if err := comm.Send(1, interleavingSmallTag, probe); err != nil {
					return err
				}
				// Keep the rendezvous body flowing between probes: the
				// long-protocol sender advances from the progress engine,
				// which a paced Sleep/Send loop alone never enters.
				if _, _, err := comm.Test(req); err != nil {
					return err
				}
			}
			if _, err := comm.Wait(req); err != nil {
				return err
			}
			return comm.Barrier()
		}
		bulk := make([]byte, interleavingBulk)
		breq, err := comm.Irecv(0, interleavingBulkTag, bulk)
		if err != nil {
			return err
		}
		probe := make([]byte, interleavingSmall)
		for i := 0; i < interleavingSamples; i++ {
			if _, err := comm.Recv(0, interleavingSmallTag, probe); err != nil {
				return err
			}
			sent := time.Duration(binary.BigEndian.Uint64(probe[:8]))
			if got := binary.BigEndian.Uint32(probe[8:12]); got != uint32(i) {
				return fmt.Errorf("probe %d arrived out of order (index %d)", i, got)
			}
			lats = append(lats, pr.P.Now()-sent)
		}
		if _, err := comm.Wait(breq); err != nil {
			return err
		}
		for i := range bulk {
			if bulk[i] != byte(i*7) {
				return fmt.Errorf("bulk byte %d corrupted", i)
			}
		}
		return comm.Barrier()
	})
	if err != nil {
		return pt, fmt.Errorf("interleaving %s: %w", pt.Mode, err)
	}
	if len(lats) != interleavingSamples {
		return pt, fmt.Errorf("interleaving %s: %d samples, want %d",
			pt.Mode, len(lats), interleavingSamples)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pt.P50NS = lats[len(lats)/2].Nanoseconds()
	pt.P99NS = lats[len(lats)*99/100].Nanoseconds()
	pt.MaxNS = lats[len(lats)-1].Nanoseconds()
	return pt, nil
}

// InterleavingTable runs the overlap experiment in both modes.
func InterleavingTable() (*Table, error) {
	return exactTable(&Table{
		Title: fmt.Sprintf("Interleaving: %d B probe one-way latency while a %d MiB rendezvous transfer shares the SCTP association (virtual ns, %d samples)",
			interleavingSmall, interleavingBulk>>20, interleavingSamples),
		Columns: []string{"p50", "p99", "max"},
		Notes:   []string{"legacy: DATA chunks, FIFO scheduler; interleaved: RFC 8260 I-DATA, priority scheduler"},
	}, 2, func(i int) (InterleavingPoint, error) { return InterleavingLatency(i == 1) },
		func(p InterleavingPoint) Row {
			return Row{Label: p.Mode, Values: []float64{float64(p.P50NS), float64(p.P99NS), float64(p.MaxNS)}}
		})
}
