// Command bench-hotpath seeds the repo's performance trajectory: it
// measures the zero-copy registered-segment data plane (against the
// preserved pre-optimization collective path in the same binary) and
// emits BENCH_hotpath.json.
//
// Four measurements:
//
//   - spMVM iteration throughput: the distributed y = A·x hot loop
//     (gather into the registered send region, zero-copy WriteNotify,
//     parity-buffered free-running iterations).
//   - spMVM steady-state allocations per iteration on the fast path
//     (must be ~0; go test -bench BenchmarkSpMV cross-checks with 0
//     allocs/op).
//   - Collective throughput: Barrier and small/large AllreduceF64,
//     legacy two-sided message rounds vs the registered-segment one-sided
//     fast path (go test -bench BenchmarkColl cross-checks the 0
//     allocs/op steady state of the small-vector operations).
//   - Checkpoint-stream flush throughput: copying vs zero-copy chunk
//     posts through ft.CPStream.
//
// Usage: go run ./cmd/bench-hotpath [-iters N] [-workers W] [-out FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/ft"
	"repro/internal/gaspi"
	"repro/internal/matrix"
	"repro/internal/spmvm"
)

type spmvmResult struct {
	Workers           int     `json:"workers"`
	Dim               int64   `json:"dim"`
	Iters             int     `json:"iters"`
	Threads           int     `json:"threads"`
	FastpathItersPerS float64 `json:"fastpath_iters_per_sec"`
	FastAllocsPerIter float64 `json:"fastpath_allocs_per_iter"`
	FastBytesPerIter  float64 `json:"fastpath_bytes_per_iter"`
	FastDeliveredFrac float64 `json:"fastpath_delivered_fraction"`
	FastpathNsPerIter float64 `json:"fastpath_ns_per_iter"`
}

type cpResult struct {
	FrameBytes     int     `json:"frame_bytes"`
	Frames         int     `json:"frames"`
	CopyingMBperS  float64 `json:"copying_mb_per_sec"`
	ZeroCopyMBperS float64 `json:"zero_copy_mb_per_sec"`
	Speedup        float64 `json:"speedup"`
}

type collResult struct {
	Workers              int     `json:"workers"`
	Ops                  int     `json:"ops"`
	VecLen               int     `json:"vec_len"`
	LargeVecLen          int     `json:"large_vec_len"`
	BarrierLegacyOpsPerS float64 `json:"barrier_legacy_ops_per_sec"`
	BarrierFastOpsPerS   float64 `json:"barrier_fast_ops_per_sec"`
	BarrierSpeedup       float64 `json:"barrier_speedup"`
	ReduceLegacyOpsPerS  float64 `json:"allreduce_legacy_ops_per_sec"`
	ReduceFastOpsPerS    float64 `json:"allreduce_fast_ops_per_sec"`
	ReduceSpeedup        float64 `json:"allreduce_speedup"`
	LargeLegacyOpsPerS   float64 `json:"allreduce_large_legacy_ops_per_sec"`
	LargeFastOpsPerS     float64 `json:"allreduce_large_fast_ops_per_sec"`
	LargeSpeedup         float64 `json:"allreduce_large_speedup"`
	FastAllocsPerOp      float64 `json:"fast_allocs_per_op"`
}

type output struct {
	Benchmark string      `json:"benchmark"`
	GOOS      string      `json:"goos"`
	GOARCH    string      `json:"goarch"`
	NumCPU    int         `json:"num_cpu"`
	SpMVM     spmvmResult `json:"spmvm"`
	CPStream  cpResult    `json:"cpstream"`
	Coll      collResult  `json:"collectives"`
	// SpMVKernel is the compute-layer trajectory recorded with
	// `go test -bench BenchmarkSpMVKernel ./internal/spmvm`. This tool
	// does not measure it; it carries the record over from the file it
	// overwrites.
	SpMVKernel json.RawMessage `json:"spmvm_kernel,omitempty"`
	// SpMVLegacy is the last measurement of the removed pre-optimization
	// spMVM engine, carried over the same way.
	SpMVLegacy json.RawMessage `json:"spmvm_legacy_retired,omitempty"`
}

func gaspiCfg(n int) gaspi.Config {
	return gaspi.Config{
		Procs:   n,
		Latency: fabric.LatencyModel{Base: 2 * time.Microsecond, PerByte: 0, PerByteNs: 0.25},
		Seed:    11,
		// Dedicated data-plane benchmark: poll hard so the hot waits
		// never park (see gaspi.DefaultSpinYields for the trade-off).
		SpinYields: 512,
	}
}

// runColl times `ops` collective operations over `workers` ranks on the
// fast or legacy path. makeOp builds each rank's operation closure (so
// per-op buffers are private to the rank goroutine); rank 0's wall time
// and allocation delta are reported (all ranks are in lockstep,
// collectives being self-synchronizing).
func runColl(workers, ops int, legacy bool, makeOp func(p *gaspi.Proc) func() error) (wall time.Duration, allocs float64, err error) {
	const warm = 50
	var mu sync.Mutex
	cfg := gaspiCfg(workers)
	cfg.LegacyCollectives = legacy
	job := gaspi.Launch(cfg, func(p *gaspi.Proc) error {
		op := makeOp(p)
		for i := 0; i < warm; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		var t0 time.Time
		if p.Rank() == 0 {
			runtime.GC()
			runtime.ReadMemStats(&m0)
			t0 = time.Now()
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		for i := 0; i < ops; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			el := time.Since(t0)
			runtime.ReadMemStats(&m1)
			mu.Lock()
			wall = el
			allocs = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
			mu.Unlock()
		}
		return nil
	})
	defer job.Close()
	res, ok := job.WaitTimeout(10 * time.Minute)
	if !ok {
		return 0, 0, fmt.Errorf("collective job hung")
	}
	for _, r := range res {
		if r.Err != nil {
			return 0, 0, fmt.Errorf("rank %d: %w", r.Rank, r.Err)
		}
	}
	return wall, allocs, nil
}

// runSpMV executes `iters` steady-state spMVM iterations over `workers`
// ranks and returns the wall time of the measured section plus the
// process-wide allocation delta (all ranks are in steady state during the
// window, so the delta is attributable to the hot loop).
func runSpMV(gen matrix.Generator, workers, iters, threads int) (wall time.Duration, allocs, bytes float64, fastFrac float64, err error) {
	const warm = 50
	var mu sync.Mutex
	job := gaspi.Launch(gaspiCfg(workers), func(p *gaspi.Proc) error {
		c := &spmvm.Direct{P: p, Base: 0, Workers: workers, Group: gaspi.GroupAll}
		lo, hi := matrix.BlockRange(gen.Dim(), workers, c.Logical())
		csr := matrix.Build(gen, lo, hi)
		plan, err := spmvm.Preprocess(c, csr)
		if err != nil {
			return err
		}
		eng, err := spmvm.NewEngine(c, plan, csr, 7)
		if err != nil {
			return err
		}
		defer eng.Close()
		eng.Threads = threads
		x := make([]float64, hi-lo)
		y := make([]float64, hi-lo)
		for i := range x {
			x[i] = float64(i%13) * 0.5
		}
		for i := 0; i < warm; i++ {
			if err := eng.SpMV(x, y, int64(i)); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		var t0 time.Time
		if c.Logical() == 0 {
			runtime.GC()
			runtime.ReadMemStats(&m0)
			t0 = time.Now()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if err := eng.SpMV(x, y, int64(warm+i)); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Logical() == 0 {
			el := time.Since(t0)
			runtime.ReadMemStats(&m1)
			mu.Lock()
			wall = el
			allocs = float64(m1.Mallocs-m0.Mallocs) / float64(iters)
			bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters)
			mu.Unlock()
		}
		return nil
	})
	defer job.Close()
	res, ok := job.WaitTimeout(10 * time.Minute)
	if !ok {
		return 0, 0, 0, 0, fmt.Errorf("spmvm job hung")
	}
	for _, r := range res {
		if r.Err != nil {
			return 0, 0, 0, 0, fmt.Errorf("rank %d: %w", r.Rank, r.Err)
		}
	}
	st := job.Transport().Stats()
	if st.Delivered > 0 {
		fastFrac = float64(st.FastDelivered) / float64(st.Delivered)
	}
	return wall, allocs, bytes, fastFrac, nil
}

// runCPStream pushes `frames` frames of `size` bytes through the
// checkpoint stream and returns the wall time.
func runCPStream(size, frames int, copying bool) (time.Duration, error) {
	var mu sync.Mutex
	var wall time.Duration
	job := gaspi.Launch(gaspiCfg(2), func(p *gaspi.Proc) error {
		s, err := ft.NewCPStream(p, size+4096, 64<<10, 50*time.Millisecond)
		if err != nil {
			return err
		}
		s.SetCopying(copying)
		if err := p.Barrier(gaspi.GroupAll, gaspi.Block); err != nil {
			return err
		}
		if p.Rank() == 0 {
			defer s.Stop()
			blob := make([]byte, size)
			if err := s.Push(1, "cp/bench/0/v0", blob); err != nil { // warm
				return err
			}
			t0 := time.Now()
			for i := 0; i < frames; i++ {
				if err := s.Push(1, "cp/bench/0/v1", blob); err != nil {
					return err
				}
			}
			mu.Lock()
			wall = time.Since(t0)
			mu.Unlock()
			if err := p.Notify(1, ft.SegCP, ft.NotifCPAck, 1, ft.CPAckQueue); err != nil {
				return err
			}
			return p.WaitQueue(ft.CPAckQueue, gaspi.Block)
		}
		go s.Serve(func(string, []byte) error { return nil })
		if _, err := p.NotifyWaitsome(ft.SegCP, ft.NotifCPAck, 1, gaspi.Block); err != nil {
			return err
		}
		s.Stop()
		return nil
	})
	defer job.Close()
	res, ok := job.WaitTimeout(10 * time.Minute)
	if !ok {
		return 0, fmt.Errorf("cpstream job hung")
	}
	for _, r := range res {
		if r.Err != nil {
			return 0, fmt.Errorf("rank %d: %w", r.Rank, r.Err)
		}
	}
	return wall, nil
}

func main() {
	iters := flag.Int("iters", 3000, "measured spMVM iterations")
	workers := flag.Int("workers", 4, "spMVM worker ranks")
	threads := flag.Int("threads", 1, "compute threads per rank")
	frames := flag.Int("frames", 200, "checkpoint frames")
	frameBytes := flag.Int("framebytes", 256<<10, "checkpoint frame size")
	out := flag.String("out", "BENCH_hotpath.json", "output file")
	flag.Parse()

	gen := matrix.DefaultGraphene(32, 16, 5)

	fmt.Printf("spMVM: %d workers, dim %d, %d iters\n", *workers, gen.Dim(), *iters)
	fastWall, allocs, bytes, fastFrac, err := runSpMV(gen, *workers, *iters, *threads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fastpath run:", err)
		os.Exit(1)
	}

	res := output{
		Benchmark: "hotpath",
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		SpMVM: spmvmResult{
			Workers:           *workers,
			Dim:               gen.Dim(),
			Iters:             *iters,
			Threads:           *threads,
			FastpathItersPerS: float64(*iters) / fastWall.Seconds(),
			FastAllocsPerIter: allocs,
			FastBytesPerIter:  bytes,
			FastDeliveredFrac: fastFrac,
			FastpathNsPerIter: float64(fastWall.Nanoseconds()) / float64(*iters),
		},
	}
	fmt.Printf("  fastpath: %.0f iters/s (%.1f µs/iter), %.2f allocs/iter, %.0f%% sink-delivered\n",
		res.SpMVM.FastpathItersPerS, res.SpMVM.FastpathNsPerIter/1e3, allocs, fastFrac*100)

	// Collective trajectory: barrier and small/large allreduce, legacy
	// message path vs registered-segment fast path.
	const collOps = 3000
	const smallVec = 4
	const largeVec = 4096
	barrierOp := func(p *gaspi.Proc) func() error {
		return func() error { return p.Barrier(gaspi.GroupAll, gaspi.Block) }
	}
	reduceOp := func(vecLen int) func(p *gaspi.Proc) func() error {
		return func(p *gaspi.Proc) func() error {
			in := make([]float64, vecLen)
			out := make([]float64, vecLen)
			for i := range in {
				in[i] = float64(i % 7)
			}
			return func() error {
				return p.AllreduceF64Into(gaspi.GroupAll, in, out, gaspi.OpSum, gaspi.Block)
			}
		}
	}
	fmt.Printf("collectives: %d workers, %d ops\n", *workers, collOps)
	coll := collResult{Workers: *workers, Ops: collOps, VecLen: smallVec, LargeVecLen: largeVec}
	type collRun struct {
		name   string
		legacy bool
		ops    int
		op     func(p *gaspi.Proc) func() error
		wall   *float64
		allocs *float64
	}
	var barrierLegacyW, barrierFastW, reduceLegacyW, reduceFastW, largeLegacyW, largeFastW, fastAllocs float64
	runs := []collRun{
		{"barrier legacy", true, collOps, barrierOp, &barrierLegacyW, nil},
		{"barrier fast", false, collOps, barrierOp, &barrierFastW, nil},
		{"allreduce legacy", true, collOps, reduceOp(smallVec), &reduceLegacyW, nil},
		{"allreduce fast", false, collOps, reduceOp(smallVec), &reduceFastW, &fastAllocs},
		{"allreduce-large legacy", true, collOps / 10, reduceOp(largeVec), &largeLegacyW, nil},
		{"allreduce-large fast", false, collOps / 10, reduceOp(largeVec), &largeFastW, nil},
	}
	for _, r := range runs {
		wall, allocs, err := runColl(*workers, r.ops, r.legacy, r.op)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			os.Exit(1)
		}
		*r.wall = float64(r.ops) / wall.Seconds()
		if r.allocs != nil {
			*r.allocs = allocs
		}
	}
	coll.BarrierLegacyOpsPerS, coll.BarrierFastOpsPerS = barrierLegacyW, barrierFastW
	coll.BarrierSpeedup = barrierFastW / barrierLegacyW
	coll.ReduceLegacyOpsPerS, coll.ReduceFastOpsPerS = reduceLegacyW, reduceFastW
	coll.ReduceSpeedup = reduceFastW / reduceLegacyW
	coll.LargeLegacyOpsPerS, coll.LargeFastOpsPerS = largeLegacyW, largeFastW
	coll.LargeSpeedup = largeFastW / largeLegacyW
	coll.FastAllocsPerOp = fastAllocs
	res.Coll = coll
	fmt.Printf("  barrier:          legacy %.0f ops/s, fast %.0f ops/s (%.2fx)\n",
		coll.BarrierLegacyOpsPerS, coll.BarrierFastOpsPerS, coll.BarrierSpeedup)
	fmt.Printf("  allreduce[%d]:     legacy %.0f ops/s, fast %.0f ops/s (%.2fx), %.2f allocs/op\n",
		smallVec, coll.ReduceLegacyOpsPerS, coll.ReduceFastOpsPerS, coll.ReduceSpeedup, coll.FastAllocsPerOp)
	fmt.Printf("  allreduce[%d]:  legacy %.0f ops/s, fast %.0f ops/s (%.2fx)\n",
		largeVec, coll.LargeLegacyOpsPerS, coll.LargeFastOpsPerS, coll.LargeSpeedup)

	fmt.Printf("checkpoint stream: %d frames x %d KiB\n", *frames, *frameBytes>>10)
	copyWall, err := runCPStream(*frameBytes, *frames, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "copying stream:", err)
		os.Exit(1)
	}
	zcWall, err := runCPStream(*frameBytes, *frames, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zero-copy stream:", err)
		os.Exit(1)
	}
	mb := float64(*frames) * float64(*frameBytes) / (1 << 20)
	res.CPStream = cpResult{
		FrameBytes:     *frameBytes,
		Frames:         *frames,
		CopyingMBperS:  mb / copyWall.Seconds(),
		ZeroCopyMBperS: mb / zcWall.Seconds(),
		Speedup:        copyWall.Seconds() / zcWall.Seconds(),
	}
	fmt.Printf("  copying:   %.0f MB/s\n", res.CPStream.CopyingMBperS)
	fmt.Printf("  zero-copy: %.0f MB/s (%.2fx)\n", res.CPStream.ZeroCopyMBperS, res.CPStream.Speedup)

	if prev, err := os.ReadFile(*out); err == nil {
		var old output
		if json.Unmarshal(prev, &old) == nil {
			res.SpMVKernel = old.SpMVKernel
			res.SpMVLegacy = old.SpMVLegacy
		}
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
