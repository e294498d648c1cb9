package spmvm

import (
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/gaspi"
)

// This file preserves the pre-optimization data path verbatim, behind
// Engine.Legacy. It is the measured "before" of the hot-path benchmark
// trajectory (cmd/bench-hotpath, BENCH_hotpath.json) and the reference
// half of the fast-vs-legacy equivalence test: per-iteration halo-vector
// allocation and decode, re-marshalled send buffer through the copying
// WriteNotify, O(producers) linear scan per notification with a reset
// loop, and goroutine-per-call compute sharding. It writes to parity-0
// offsets only, so iterations MUST be separated by a collective.

func (e *Engine) spmvLegacy(x, y []float64, it int64) error {
	epoch := e.comm.Epoch()
	val := notifVal(epoch, it)
	me := e.plan.Logical

	for i := range e.plan.SendTo {
		sp := &e.plan.SendTo[i]
		need := 8 * len(sp.LocalIdx)
		if cap(e.sendBuf) < need {
			e.sendBuf = make([]byte, need)
		}
		buf := e.sendBuf[:need]
		for k, li := range sp.LocalIdx {
			binary.LittleEndian.PutUint64(buf[8*k:], math.Float64bits(x[li]))
		}
		err := e.comm.WriteNotify(sp.To, e.seg, 8*sp.DstOff, buf,
			gaspi.NotificationID(me), val, HaloQueue)
		if err != nil {
			return err
		}
	}

	e.mul(&e.local, x, y, false)

	if len(e.plan.SendTo) > 0 {
		if err := e.comm.WaitQueue(HaloQueue); err != nil {
			return err
		}
	}
	if err := e.collectHaloLegacy(val); err != nil {
		return err
	}

	if len(e.plan.RecvFrom) > 0 {
		halo, err := e.haloVectorLegacy()
		if err != nil {
			return err
		}
		e.mul(&e.remote, halo, y, true)
	}
	return nil
}

func (e *Engine) collectHaloLegacy(want int64) error {
	for i := range e.recvSet {
		e.recvSet[i] = false
	}
	remaining := len(e.plan.RecvFrom)
	p := e.comm.Proc()
	for remaining > 0 {
		id, err := e.comm.NotifyWaitsome(e.seg, 0, e.plan.Workers)
		if err != nil {
			return err
		}
		got, err := p.NotifyReset(e.seg, id)
		if err != nil {
			return err
		}
		if got == 0 {
			continue // raced with another reset
		}
		if got != want {
			continue // stale epoch/iteration: discard
		}
		idx := int(id)
		for i := range e.plan.RecvFrom {
			if e.plan.RecvFrom[i].From == idx && !e.recvSet[idx] {
				e.recvSet[idx] = true
				remaining--
				break
			}
		}
	}
	return nil
}

func (e *Engine) haloVectorLegacy() ([]float64, error) {
	raw, err := e.comm.Proc().SegmentData(e.seg)
	if err != nil {
		return nil, err
	}
	n := len(e.plan.HaloCols)
	halo := make([]float64, n)
	for i := 0; i < n; i++ {
		halo[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return halo, nil
}

func (e *Engine) mulLegacy(s *sellPart, x, y []float64, add bool, n int) {
	var wg sync.WaitGroup
	share := (n + e.Threads - 1) / e.Threads
	for t := 0; t < e.Threads; t++ {
		lo := t * share
		hi := min(lo+share, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			s.mulChunks(x, y, add, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
