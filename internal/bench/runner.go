package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The sweep runner: experiment grids (size x transport x loss x seed)
// are embarrassingly parallel because every cell builds its own Kernel,
// Network and stacks from scratch — no state is shared between cells
// except the buffer pool, which is concurrency-safe. Cells are handed
// to a fixed worker pool and results land in slot-indexed storage, so
// the assembled tables are identical whatever the worker count.

// parallelism holds the configured worker count; <=0 means GOMAXPROCS.
var parallelism atomic.Int32

func init() { parallelism.Store(1) }

// SetParallelism sets how many sweep cells run concurrently. n <= 0
// selects GOMAXPROCS. The default is 1 (serial).
func SetParallelism(n int) { parallelism.Store(int32(n)) }

// Parallelism returns the effective worker count.
func Parallelism() int {
	n := int(parallelism.Load())
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// RunCells evaluates fn(0..n-1) on the configured worker pool. fn must
// write its result into slot-indexed storage owned by the caller. All
// cells run even when one fails; the error returned is the failing
// cell with the lowest index, so error reporting is as deterministic as
// the results themselves.
func RunCells(n int, fn func(i int) error) error {
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// collect runs cell(0..n-1) through RunCells and returns the results
// in index order.
func collect[P any](n int, cell func(i int) (P, error)) ([]P, error) {
	out := make([]P, n)
	err := RunCells(n, func(i int) (err error) {
		out[i], err = cell(i)
		return err
	})
	return out, err
}

// seedMeans averages each run of k consecutive values: the per-seed
// cells of one row, laid out seed-innermost, become the row's mean.
func seedMeans(vals []float64, k int) []float64 {
	out := make([]float64, 0, len(vals)/k)
	for i := 0; i < len(vals); i += k {
		sum := 0.0
		for _, v := range vals[i : i+k] {
			sum += v
		}
		out = append(out, sum/float64(k))
	}
	return out
}

// exactTable fills t with one Exact row per cell(0..n-1), run through
// RunCells.
func exactTable[P any](t *Table, n int, cell func(i int) (P, error), row func(P) Row) (*Table, error) {
	pts, err := collect(n, cell)
	if err != nil {
		return nil, err
	}
	t.Exact = true
	for _, p := range pts {
		t.Rows = append(t.Rows, row(p))
	}
	return t, nil
}
