package spmvm

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/matrix"
)

// refSpMV is the two-pass CSR reference the SELL-8 engine must reproduce
// bit for bit: per row, the local entries summed in CSR order, then the
// remote entries summed in CSR order and added.
func refSpMV(csr *matrix.CSR, xg, y []float64) {
	lo, hi := csr.RowOffset, csr.RowOffset+int64(csr.LocalRows())
	for r := range y {
		var loc, rem float64
		for k := csr.RowPtr[r]; k < csr.RowPtr[r+1]; k++ {
			if col := csr.Col[k]; col >= lo && col < hi {
				loc += csr.Val[k] * xg[col]
			}
		}
		y[r] = loc
		for k := csr.RowPtr[r]; k < csr.RowPtr[r+1]; k++ {
			if col := csr.Col[k]; col < lo || col >= hi {
				rem += csr.Val[k] * xg[col]
			}
		}
		y[r] += rem
	}
}

// TestSpMVBitIdenticalToCSR is the SELL-8 property test: over every
// generator and 1–7 workers (uneven splits, blocks whose row count is not
// a multiple of 8, blocks of fewer than 8 rows, empty remote parts), the
// engine's output with Threads 1 and 4 equals the two-pass CSR reference
// bit for bit. The input vector includes zeros of both signs, and the
// output vector starts as NaN so every row must be written.
func TestSpMVBitIdenticalToCSR(t *testing.T) {
	diag := make([]float64, 70)
	for i := range diag {
		diag[i] = float64(i%9) - 4.5
	}
	gens := []matrix.Generator{
		matrix.DefaultGraphene(12, 10, 7),
		matrix.Laplacian1D{N: 45},
		matrix.Laplacian2D{Nx: 9, Ny: 11},
		matrix.RandomSparse{N: 150, NNZPerRow: 7, Seed: 3},
		matrix.Diagonal{Values: diag},
		reversal{n: 50},
	}
	for _, gen := range gens {
		xg := globalVec(gen.Dim())
		for i := range xg {
			switch i % 13 {
			case 3:
				xg[i] = 0
			case 8:
				xg[i] = math.Copysign(0, -1)
			}
		}
		for workers := 1; workers <= 7; workers++ {
			t.Run(fmt.Sprintf("%T/w%d", gen, workers), func(t *testing.T) {
				testBitIdentical(t, gen, xg, workers)
			})
		}
	}
}

// reversal is the anti-diagonal matrix with a second band beside it: most
// rows' entries are all remote, so whole chunks of the local part are
// empty.
type reversal struct{ n int64 }

func (r reversal) Dim() int64 { return r.n }

func (r reversal) Row(i int64, cols []int64, vals []float64) ([]int64, []float64) {
	j := r.n - 1 - i
	cols, vals = append(cols, j), append(vals, 1.5+float64(i%5))
	if j+1 < r.n && j+1 != i {
		cols, vals = append(cols, j+1), append(vals, -0.25)
	}
	return cols, vals
}

func testBitIdentical(t *testing.T, gen matrix.Generator, xg []float64, workers int) {
	var mu sync.Mutex
	var mismatches []string
	runWorkers(t, workers, func(c Comm) error {
		lo, hi := matrix.BlockRange(gen.Dim(), workers, c.Logical())
		csr := matrix.Build(gen, lo, hi)
		plan, err := Preprocess(c, csr)
		if err != nil {
			return err
		}
		eng, err := NewEngine(c, plan, csr, 7)
		if err != nil {
			return err
		}
		defer eng.Close()
		want := make([]float64, hi-lo)
		refSpMV(csr, xg, want)
		for it, threads := range []int{1, 4} {
			eng.Threads = threads
			y := make([]float64, hi-lo)
			for r := range y {
				y[r] = math.NaN() // the engine must overwrite every row
			}
			if err := eng.SpMV(xg[lo:hi], y, int64(it)); err != nil {
				return err
			}
			for r := range y {
				if math.Float64bits(y[r]) != math.Float64bits(want[r]) {
					mu.Lock()
					mismatches = append(mismatches, fmt.Sprintf("threads=%d row %d: %v, want %v", threads, lo+int64(r), y[r], want[r]))
					mu.Unlock()
					break
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	for _, m := range mismatches {
		t.Error(m)
	}
}

// TestSellPadding checks the storage rules on a block with uneven row
// widths and a short last chunk: chunk sizes are eight times the widest
// row, padding values are +0, and padding columns repeat the row's last
// column (the chunk's first column for a lane with no entries).
func TestSellPadding(t *testing.T) {
	gen := matrix.RandomSparse{N: 61, NNZPerRow: 5, Seed: 11}
	e := kernelEngine(t, gen, 3, 1)
	for _, s := range []*sellPart{&e.local, &e.remote} {
		for c := 0; c < s.chunks(); c++ {
			b, end := s.ptr[c], s.ptr[c+1]
			if (end-b)%sellC != 0 {
				t.Fatalf("chunk %d: %d entries, not a multiple of %d", c, end-b, sellC)
			}
			for l := int32(0); l < sellC; l++ {
				seen := false
				for i := b + l; i < end; i += sellC {
					if s.val[i] != 0 {
						seen = true
						continue
					}
					if math.Signbit(s.val[i]) {
						t.Fatalf("chunk %d lane %d: padding value is -0", c, l)
					}
					want := s.col[b]
					for f := b; f < b+sellC; f++ {
						if s.val[f] != 0 {
							want = s.col[f]
							break
						}
					}
					if seen {
						want = s.col[i-sellC]
					}
					if s.col[i] != want {
						t.Fatalf("chunk %d lane %d slot %d: padding column %d, want %d", c, l, (i-b)/sellC, s.col[i], want)
					}
				}
			}
		}
	}
}

// kernelEngine builds the SELL parts of one block the way NewEngine does,
// without a communication layer: the plan carries only the row range and
// the sorted halo columns.
func kernelEngine(tb testing.TB, gen matrix.Generator, workers, logical int) *Engine {
	lo, hi := matrix.BlockRange(gen.Dim(), workers, logical)
	csr := matrix.Build(gen, lo, hi)
	seen := map[int64]bool{}
	var halo []int64
	for _, col := range csr.Col {
		if (col < lo || col >= hi) && !seen[col] {
			seen[col] = true
			halo = append(halo, col)
		}
	}
	sort.Slice(halo, func(i, j int) bool { return halo[i] < halo[j] })
	e := &Engine{plan: &Plan{Workers: workers, Logical: logical, Lo: lo, Hi: hi, HaloCols: halo}, Threads: 1}
	if err := e.split(csr); err != nil {
		tb.Fatal(err)
	}
	return e
}

// BenchmarkSpMVKernel times the compute layer alone on the block one rank
// of the ftbench solve workload owns (graphene 256×256, logical 1 of 4):
// the local part, then the remote part added from a halo vector, in one
// process with no communication.
func BenchmarkSpMVKernel(b *testing.B) {
	e := kernelEngine(b, matrix.DefaultGraphene(256, 256, 1), 4, 1)
	x := globalVec(int64(e.LocalRows()))
	halo := globalVec(int64(len(e.plan.HaloCols)))
	y := make([]float64, e.LocalRows())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.mul(&e.local, x, y, false)
		e.mul(&e.remote, halo, y, true)
	}
}
