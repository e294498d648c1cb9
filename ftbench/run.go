package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/ft"
	"repro/internal/lanczos"
	"repro/internal/trace"
)

// runResult is one launched solve. err is non-nil for a failed run: hung,
// an error on a rank that was not a scheduled victim, unrecoverable, a
// wrong eigenvalue or a broken structural assertion. wrong marks the last
// two, where the job completed with a wrong output.
type runResult struct {
	err   error
	wrong bool

	solveS, setupS, peakHeapMB float64

	// Structure, from the program's own trace counters.
	deaths          int
	recoveries      int64
	redoIters       int64
	shadowFailovers int64
	fastpathIters   int64
	fallbackIters   int64

	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
}

// runOnce launches one solve of w and checks it against the serial
// reference eigenvalue ref.
func runOnce(w workload, ref float64, traced bool) runResult {
	gen := w.gen()
	ccfg, cfg := w.configs()
	pr := &probe{traced: traced}
	opts := lanczos.Options{MaxIters: w.iters, NumEigs: 2, CheckEvery: int(w.cpEvery), Seed: uint64(w.seed)}

	runtime.GC()
	hs := startHeapSampler()
	launch := time.Now()
	job := core.Launch(ccfg, cfg, func() core.App {
		return pr.wrap(apps.NewLanczos(apps.LanczosConfig{Gen: gen, Opts: opts}))
	})
	defer job.Close()
	results, done := job.WaitTimeout(solveTimeout)
	end := time.Now()
	peak := hs.stop()
	if !done {
		job.Cluster.Shutdown()
		return runResult{err: fmt.Errorf("hung: no completion within %v", solveTimeout)}
	}

	var r runResult
	r.peakHeapMB = float64(peak) / (1 << 20)
	recs := job.Recorders
	sum := trace.Aggregate(recs)
	r.recoveries = sum.SumCounter[trace.KFDRecoveries]
	r.redoIters = sum.SumCounter[trace.KCoreRedoIters]
	r.shadowFailovers = sum.SumCounter[trace.KFTShadowFailovers]
	r.fastpathIters = sum.SumCounter[trace.KSpMVMFastpathIters]
	r.fallbackIters = sum.SumCounter[trace.KSpMVMFallbackIters]

	victims := w.victims(job.Layout)
	for _, res := range results {
		if res.Death != nil {
			r.deaths++
			if !victims[res.Rank] {
				return fail(r, "rank %d died but was not a scheduled victim: %+v", res.Rank, res.Death)
			}
			continue
		}
		if victims[res.Rank] {
			return fail(r, "scheduled victim rank %d did not die (err %v)", res.Rank, res.Err)
		}
		if res.Err != nil {
			if errors.Is(res.Err, ft.ErrUnrecoverable) {
				return fail(r, "unrecoverable: rank %d: %v", res.Rank, res.Err)
			}
			return fail(r, "rank %d: %v", res.Rank, res.Err)
		}
	}

	insts := pr.instances()
	eig, ok := finalEig(insts)
	if !ok {
		return fail(r, "no surviving worker finished with a result")
	}
	if !experiment.EigMatches(eig, ref, gen.Dim()) {
		r.wrong = true
		return fail(r, "eig0 %v, reference %v (tol %.3g rel)", eig, ref, experiment.EigTolerance(gen.Dim()))
	}

	var first, last time.Time
	starts := 0
	for _, a := range insts {
		if a.start0.IsZero() {
			continue
		}
		starts++
		if first.IsZero() || a.start0.Before(first) {
			first = a.start0
		}
		if a.start0.After(last) {
			last = a.start0
		}
	}
	if starts != w.workers {
		return fail(r, "%d workers began iteration 0, want %d", starts, w.workers)
	}
	r.setupS = last.Sub(launch).Seconds()
	r.solveS = end.Sub(first).Seconds()

	if err := w.checkStructure(r); err != nil {
		r.err, r.wrong = err, true
		return r
	}
	if traced {
		r.layer = layerMetrics(w, insts, recs, sum, job.Cluster.Job().Transport().Stats(), r)
	}
	return r
}

func fail(r runResult, format string, args ...any) runResult {
	r.err = fmt.Errorf(format, args...)
	return r
}

// finalEig returns the lowest eigenvalue of a worker that finished.
func finalEig(insts []*probeApp) (float64, bool) {
	for _, a := range insts {
		s := a.inner.Solver()
		if s != nil && s.Finished() && len(s.Eigs) > 0 {
			return s.Eigs[0], true
		}
	}
	return 0, false
}

// checkStructure asserts what every run of the workload must show beyond
// the eigenvalue. Every SpMV takes the zero-copy path; deaths equal the
// scheduled victims exactly; redo work under global recommit lies in the
// range the schedule fixes (see redoRange); the failover path recomputes
// nothing and takes over once per kill.
func (w workload) checkStructure(r runResult) error {
	if r.fallbackIters != 0 {
		return fmt.Errorf("spmvm.fallback_iters %d, want 0 (zero-copy path on every rank)", r.fallbackIters)
	}
	kills := w.numKills()
	if r.deaths != kills {
		return fmt.Errorf("%d deaths, want exactly the %d scheduled victims", r.deaths, kills)
	}
	if r.recoveries != int64(kills) {
		return fmt.Errorf("ft.recoveries %d, want %d (one per kill)", r.recoveries, kills)
	}
	switch {
	case w.replication > 0:
		if r.redoIters != 0 {
			return fmt.Errorf("ft.redo_iters %d on the failover path, want 0", r.redoIters)
		}
		if r.shadowFailovers != int64(kills) {
			return fmt.Errorf("ft.shadow.failovers %d, want %d (one per kill)", r.shadowFailovers, kills)
		}
	default:
		if lo, hi := w.redoRange(); r.redoIters < lo || r.redoIters > hi {
			return fmt.Errorf("ft.redo_iters %d, want %d..%d", r.redoIters, lo, hi)
		}
	}
	return nil
}

// sameProgram checks that a traced run executed the same program as the
// untraced run base: the same number of shadow takeovers and the same
// spMVM iteration count. The count is exact without failures. With
// kills, each survivor may or may not finish the SpMV of the iteration
// its peer died in before the failure reaches it, so untraced runs
// themselves differ by up to one SpMV per survivor per kill.
func (w workload) sameProgram(r, base runResult) error {
	slack := int64((w.workers - 1) * w.numKills())
	if d := r.fastpathIters - base.fastpathIters; r.shadowFailovers != base.shadowFailovers || d > slack || d < -slack {
		return fmt.Errorf("traced run diverged: fastpath_iters %d vs %d (allowed ±%d), shadow failovers %d vs %d",
			r.fastpathIters, base.fastpathIters, slack, r.shadowFailovers, base.shadowFailovers)
	}
	return nil
}

// redoRange bounds the redo work of checkpoint/restart recovery: every
// survivor recomputes the iterations from the last checkpoint up to the
// one the failure caught it in. A victim exits at the start of iteration
// k, so no survivor gets past k, and each has entered k-1's last
// collective. A survivor still parked in that collective when the death
// is discovered (a NACKed write or liveness probe) aborts k-1 and redoes
// one iteration fewer. The top of the range is the usual case: every
// survivor caught in k.
func (w workload) redoRange() (lo, hi int64) {
	for it, ls := range w.kills {
		survivors := int64(w.workers - len(ls))
		hi += (it % w.cpEvery) * survivors
		lo += (it%w.cpEvery - 1) * survivors
	}
	return lo, hi
}

// heapSampler records the peak of the Go heap in use (live and
// not-yet-swept objects) while a run is going.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	return h.peak
}

// --- per-layer metrics of a traced run ---------------------------------

// layerMetrics reads one traced run: spans from the wrappers, counts from
// the program's trace recorders and the fabric's transport statistics.
func layerMetrics(w workload, insts []*probeApp, recs []*trace.Recorder, sum trace.Summary, fs fabric.Stats, r runResult) map[string]float64 {
	m := make(map[string]float64)
	var steps, allreduces int64
	var stepNs, computeNs, postNs, waitNs, allNs []int64
	var cpNs, cpCalls, restoreNs, restores int64
	var initMax, rebuildMax, barrierMax int64
	for _, a := range insts {
		if !a.rescue && a.initNs > initMax {
			initMax = a.initNs
		}
		rebuildMax = max(rebuildMax, a.rebuildNs)
		steps += int64(len(a.stepNs))
		stepNs = append(stepNs, a.stepNs...)
		computeNs = append(computeNs, a.computeNs...)
		postNs = append(postNs, a.haloPostNs...)
		waitNs = append(waitNs, a.haloWaitNs...)
		cpNs += a.checkpointNs
		cpCalls += a.cpCalls
		restoreNs += a.restoreNs
		restores += a.restores
		if a.comm != nil {
			allNs = append(allNs, a.comm.allreduceNs...)
			allreduces += int64(len(a.comm.allreduceNs))
			barrierMax = max(barrierMax, a.comm.barrierNs)
		}
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	ms := func(ns float64) float64 { return ns / 1e6 }

	m["apps.init_ms"] = ms(float64(initMax))
	m["apps.rebuild_ms"] = ms(float64(rebuildMax))
	m["apps.step_us.p50"] = us(quantile(stepNs, 0.50))
	m["apps.step_us.p99"] = us(quantile(stepNs, 0.99))
	m["apps.steps"] = float64(steps)
	m["apps.checkpoint_us"] = us(ratio(float64(cpNs), float64(cpCalls)))
	m["apps.restore_ms"] = ms(ratio(float64(restoreNs), float64(restores)))

	m["spmvm.compute_us"] = us(quantile(computeNs, 0.50))
	m["spmvm.halo_post_us"] = us(quantile(postNs, 0.50))
	m["spmvm.halo_wait_us"] = us(quantile(waitNs, 0.50))
	fast := float64(sum.SumCounter[trace.KSpMVMFastpathIters])
	slow := float64(sum.SumCounter[trace.KSpMVMFallbackIters])
	m["spmvm.fastpath_frac"] = ratio(fast, fast+slow)

	m["gaspi.allreduce_us.p50"] = us(quantile(allNs, 0.50))
	m["gaspi.allreduce_us.p99"] = us(quantile(allNs, 0.99))
	m["gaspi.allreduce_per_step"] = ratio(float64(allreduces), float64(steps))
	m["gaspi.barrier_ms"] = ms(float64(barrierMax))

	m["fabric.msgs_per_step"] = ratio(float64(fs.Sent), float64(steps))
	m["fabric.bytes_per_step"] = ratio(float64(fs.Bytes), float64(steps))
	m["fabric.fast_frac"] = ratio(float64(fs.FastDelivered), float64(fs.Delivered))
	m["fabric.wakes_per_msg"] = ratio(float64(fs.DoorbellWakes), float64(fs.Sent))
	m["fabric.nacks"] = float64(fs.Nacks)
	m["fabric.dropped"] = float64(fs.Dropped)

	m["checkpoint.visible_ms"] = ms(float64(sum.Max[trace.PhaseCheckpoint]))
	m["checkpoint.writes"] = float64(sum.SumCounter[trace.KCoreCheckpoints])
	m["checkpoint.mirror_frames"] = float64(sum.SumCounter[trace.KFTShadowAppliedFrames])
	m["checkpoint.restore_from_local"] = float64(sum.SumCounter[trace.KCoreRestoreFromLocal])
	m["checkpoint.restore_from_neighbor"] = float64(sum.SumCounter[trace.KCoreRestoreFromNeighbor])
	m["checkpoint.restore_from_remote"] = float64(sum.SumCounter[trace.KCoreRestoreFromRemote])
	m["checkpoint.restore_from_pfs"] = float64(sum.SumCounter[trace.KCoreRestoreFromPFS])

	for k, v := range ttrBreakdown(recs, w.numKills()) {
		m[k] = v
	}
	m["ft.redo_iters"] = float64(r.redoIters)
	m["ft.recoveries"] = float64(r.recoveries)
	m["ft.epoch_restarts"] = float64(sum.SumCounter[trace.KFTEpochRestarts])
	scans := float64(sum.SumCounter[trace.KFDScans])
	m["ft.fd_scans"] = scans
	m["ft.fd_pings"] = float64(sum.SumCounter[trace.KFDPings])
	m["ft.fd_scan_ms"] = ms(ratio(float64(sum.SumCounter[trace.KFDScanNS]), scans))
	return m
}

// ttrPhases are the recovery phases of the time-to-recover breakdown, in
// the order they happen, with their metric names.
var ttrPhases = []struct{ key, name string }{
	{ft.CounterDetectNS, "ft.detect_ms"},
	{ft.CounterAckNS, "ft.ack_ms"},
	{ft.CounterRebuildNS, "ft.rebuild_ms"},
	{ft.CounterLocalizedNS, "ft.localized_ms"},
	{ft.CounterFailoverNS, "ft.failover_ms"},
	{ft.CounterRestoreNS, "ft.restore_ms"},
}

// ttrBreakdown takes every phase from ONE rank, the one whose phase sum
// is largest, so the phases add up to ft.ttr_ms; per-phase maxima over
// different ranks would not. Values are per failure.
func ttrBreakdown(recs []*trace.Recorder, kills int) map[string]float64 {
	out := make(map[string]float64, len(ttrPhases)+1)
	best, bestSum := -1, int64(-1)
	for i, rec := range recs {
		var s int64
		for _, p := range ttrPhases {
			s += rec.Counter(p.key)
		}
		if s > bestSum {
			best, bestSum = i, s
		}
	}
	per := float64(max(kills, 1)) * 1e6
	for _, p := range ttrPhases {
		v := 0.0
		if best >= 0 && kills > 0 {
			v = float64(recs[best].Counter(p.key)) / per
		}
		out[p.name] = v
	}
	ttr := 0.0
	if kills > 0 {
		ttr = float64(bestSum) / per
	}
	out["ft.ttr_ms"] = ttr
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs (nearest rank), 0 when empty.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i])
}
