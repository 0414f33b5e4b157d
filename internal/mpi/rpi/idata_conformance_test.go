// I-DATA conformance matrix: enabling RFC 8260 interleaving (with a
// non-FIFO scheduler) is a transport-level change and must be invisible
// to MPI semantics. Every backend × world size runs the same mixed
// point-to-point program twice — interleaving off and on — and the
// per-rank digests of everything received must match bit for bit.
package rpi_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sctp"
)

// idataDigestProgram is the mixed workload: a ring exchange at three
// sizes spanning eager and rendezvous, then a deterministic
// many-to-one sweep. Every received byte folds into a per-rank FNV
// digest; receive posting order is fixed (no wildcards), so equal
// digests mean bit-identical MPI results.
func idataDigestProgram(digests []uint64) func(pr *mpi.Process, comm *mpi.Comm) error {
	return func(pr *mpi.Process, comm *mpi.Comm) error {
		n := comm.Size()
		rank := comm.Rank()
		h := fnv.New64a()
		sizes := []int{64, 2 << 10, 96 << 10}
		next := (rank + 1) % n
		prev := (rank - 1 + n) % n
		for tag, sz := range sizes {
			req, err := comm.Isend(next, tag, pattern(sz, byte(next)+byte(tag)))
			if err != nil {
				return err
			}
			buf := make([]byte, sz)
			st, err := comm.Recv(prev, tag, buf)
			if err != nil {
				return err
			}
			if st.Count != sz {
				return fmt.Errorf("ring size %d: count %d", sz, st.Count)
			}
			if err := checkPattern(buf, byte(rank)+byte(tag)); err != nil {
				return fmt.Errorf("ring size %d: %w", sz, err)
			}
			h.Write(buf)
			if _, err := comm.Wait(req); err != nil {
				return err
			}
		}
		// Many-to-one with fixed posting order so completion order (and
		// hence the digest) is deterministic by construction.
		if rank == 0 {
			buf := make([]byte, 1<<10)
			for src := 1; src < n; src++ {
				if _, err := comm.Recv(src, 100+src, buf); err != nil {
					return err
				}
				if err := checkPattern(buf, byte(src)); err != nil {
					return fmt.Errorf("incast from %d: %w", src, err)
				}
				h.Write(buf)
			}
		} else {
			if err := comm.Send(0, 100+rank, pattern(1<<10, byte(rank))); err != nil {
				return err
			}
		}
		digests[rank] = h.Sum64()
		return nil
	}
}

func TestConformanceIDataMatrix(t *testing.T) {
	worlds := []int{2, 3, 8, 17}
	for _, name := range []string{"tcp", "sctp", "sctp1to1"} {
		for _, n := range worlds {
			t.Run(fmt.Sprintf("%s/n%d", name, n), func(t *testing.T) {
				var sawIData int
				run := func(idata bool) []uint64 {
					cfg := sctp.Config{}
					if idata {
						cfg.IData = true
						cfg.Scheduler = sctp.SchedPriority
						cfg.Probe = &sctp.Probe{
							IDataFrag: func(*sctp.Assoc, uint16, uint32, uint32, bool, bool) {
								sawIData++
							},
						}
					}
					digests := make([]uint64, n)
					runWorld(t, backendWith(name, cfg), n, 0, idataDigestProgram(digests))
					return digests
				}
				off := run(false)
				sawIData = 0
				on := run(true)
				for r := range off {
					if off[r] != on[r] {
						t.Errorf("rank %d digest differs: off %016x on %016x", r, off[r], on[r])
					}
				}
				if name != "tcp" && sawIData == 0 {
					t.Error("interleaving enabled but no I-DATA chunks observed")
				}
			})
		}
	}
}
