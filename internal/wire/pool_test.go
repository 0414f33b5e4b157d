package wire

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/testenv"
)

// A steady-state GetBuf/PutBuf pair allocates nothing: the class pools
// hold *[]byte boxes and the emptied boxes are recycled too, so PutBuf
// never boxes a slice header.
func TestGetPutAllocFree(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	for _, n := range []int{1, 64, 1500, 30 << 10} {
		for i := 0; i < 10; i++ {
			PutBuf(GetBuf(n))
		}
		if a := testing.AllocsPerRun(1000, func() { PutBuf(GetBuf(n)) }); a != 0 {
			t.Errorf("GetBuf(%d)/PutBuf allocates %.2f times per pair, want 0", n, a)
		}
	}
}

// The pool is the one shared by concurrently running kernels. Eight
// goroutines take buffers, stamp every 8-byte word with an ownership
// mark (goroutine, iteration), hold a few at once, and check the marks
// are intact before handing each back: a buffer given to two owners at
// once shows up as a clobbered mark (and, under -race, as a data race).
func TestPoolConcurrentOwnership(t *testing.T) {
	const workers, iters, held = 8, 1000, 4
	sizes := []int{64, 200, 1500, 4096, 16 << 10}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var bufs [held][]byte
			var marks [held]uint64
			for i := 0; i < iters; i++ {
				slot := i % held
				if b := bufs[slot]; b != nil {
					if err := checkStamp(b, marks[slot]); err != nil {
						errs <- err
						return
					}
					PutBuf(b)
				}
				n := sizes[(g+i)%len(sizes)]
				b := GetBuf(n)
				if len(b) != n {
					t.Errorf("GetBuf(%d) returned len %d", n, len(b))
				}
				marks[slot] = uint64(g)<<32 | uint64(i)
				stamp(b, marks[slot])
				bufs[slot] = b
			}
			for slot, b := range bufs {
				if err := checkStamp(b, marks[slot]); err != nil {
					errs <- err
					return
				}
				PutBuf(b)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func stamp(b []byte, mark uint64) {
	for off := 0; off+8 <= len(b); off += 8 {
		binary.LittleEndian.PutUint64(b[off:], mark)
	}
}

func checkStamp(b []byte, mark uint64) error {
	for off := 0; off+8 <= len(b); off += 8 {
		if got := binary.LittleEndian.Uint64(b[off:]); got != mark {
			return fmt.Errorf("buffer shared by two owners: word at %d holds mark %#x, want %#x", off, got, mark)
		}
	}
	return nil
}

// Retain carries a returned buffer past collections that empty a
// sync.Pool, and releases it once it has gone untaken through one more
// Retain.
func TestRetainSurvivesCollections(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	// One P, so Retain reaches the slot PutBuf filled.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 200 << 10 // a class no other test in this package uses
	same := func(a, b []byte) bool { return &a[:1][0] == &b[:1][0] }

	b := GetBuf(n)
	PutBuf(b)
	Retain()
	runtime.GC()
	runtime.GC()
	got := GetBuf(n)
	if !same(got, b) {
		t.Fatal("a retained buffer did not survive two collections")
	}
	PutBuf(got)
	Retain()
	Retain() // b was not taken since the previous Retain
	if got := GetBuf(n); same(got, b) {
		t.Fatal("a buffer untaken through a Retain was still pooled")
	}
}
