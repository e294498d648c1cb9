package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gaspi"
	"repro/internal/spmvm"
)

// The wrappers below must not change which program runs. core/run.go
// type-asserts Close, LiveIteration and HaloPartners on the App, and
// spmvm takes its zero-copy and allocation-free paths only when the Comm
// offers FastComm and CollInto; dropping any of them would silently run
// a different recovery mode or data path under tracing.
var (
	_ core.App                                            = (*probeApp)(nil)
	_ interface{ Close() }                                = (*probeApp)(nil)
	_ interface{ LiveIteration(*core.Ctx) (int64, bool) } = (*probeApp)(nil)
	_ interface{ HaloPartners(*core.Ctx) []int }          = (*probeApp)(nil)
	_ spmvm.Comm                                          = (*tracedComm)(nil)
	_ spmvm.FastComm                                      = (*tracedComm)(nil)
	_ spmvm.CollInto                                      = (*tracedComm)(nil)
)

// probe collects the App instances of one run. Untraced, an instance only
// stamps the start of its iteration 0 (the setup_s / solve_s boundary);
// traced, it also times every call into the app, spMVM and GASPI layers.
type probe struct {
	traced bool
	mu     sync.Mutex
	apps   []*probeApp
}

func (p *probe) wrap(inner *apps.Lanczos) core.App {
	a := &probeApp{inner: inner, traced: p.traced}
	p.mu.Lock()
	p.apps = append(p.apps, a)
	p.mu.Unlock()
	return a
}

// instances returns the wrapped instances; call after the job ended.
func (p *probe) instances() []*probeApp {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*probeApp(nil), p.apps...)
}

// probeApp wraps apps.Lanczos. Each instance is driven by one rank's
// goroutine, so its fields need no locking; they are read after the job
// has ended.
type probeApp struct {
	inner  *apps.Lanczos
	traced bool
	rescue bool
	// start0 is when this instance began iteration 0 (zero for rescues,
	// which resume later).
	start0 time.Time
	comm   *tracedComm

	initNs, rebuildNs      int64
	restoreNs, restores    int64
	checkpointNs, cpCalls  int64
	stepNs                 []int64 // per completed or aborted step
	computeNs              []int64 // step minus halo and collective time
	haloPostNs, haloWaitNs []int64 // per step
}

func (a *probeApp) Init(ctx *core.Ctx, restore bool) error {
	a.rescue = restore
	if !a.traced {
		return a.inner.Init(ctx, restore)
	}
	t := time.Now()
	err := a.inner.Init(ctx, restore)
	a.initNs += int64(time.Since(t))
	return err
}

// Rebuild installs the traced Comm before the app builds its engine and
// solver on ctx.Comm, so every halo and collective call passes through it.
func (a *probeApp) Rebuild(ctx *core.Ctx) error {
	if !a.traced {
		return a.inner.Rebuild(ctx)
	}
	if _, ok := ctx.Comm.(*tracedComm); !ok {
		tc, err := newTracedComm(ctx.Comm)
		if err != nil {
			return err
		}
		a.comm = tc
		ctx.Comm = tc
	}
	t := time.Now()
	err := a.inner.Rebuild(ctx)
	a.rebuildNs += int64(time.Since(t))
	return err
}

func (a *probeApp) Checkpoint(ctx *core.Ctx) ([]byte, error) {
	if !a.traced {
		return a.inner.Checkpoint(ctx)
	}
	t := time.Now()
	b, err := a.inner.Checkpoint(ctx)
	a.checkpointNs += int64(time.Since(t))
	a.cpCalls++
	return b, err
}

func (a *probeApp) Restore(ctx *core.Ctx, payload []byte, iter int64) error {
	if !a.traced || payload == nil {
		// A nil payload is the initial start vector, part of setup.
		return a.inner.Restore(ctx, payload, iter)
	}
	t := time.Now()
	err := a.inner.Restore(ctx, payload, iter)
	a.restoreNs += int64(time.Since(t))
	a.restores++
	return err
}

func (a *probeApp) Step(ctx *core.Ctx, iter int64) error {
	if iter == 0 && !a.rescue && a.start0.IsZero() {
		a.start0 = time.Now()
	}
	if !a.traced {
		return a.inner.Step(ctx, iter)
	}
	c := a.comm
	post0, wait0, coll0 := c.postNs, c.waitNs, c.collNs
	t := time.Now()
	err := a.inner.Step(ctx, iter)
	d := int64(time.Since(t))
	post, wait, coll := c.postNs-post0, c.waitNs-wait0, c.collNs-coll0
	a.stepNs = append(a.stepNs, d)
	a.computeNs = append(a.computeNs, d-post-wait-coll)
	a.haloPostNs = append(a.haloPostNs, post)
	a.haloWaitNs = append(a.haloWaitNs, wait)
	return err
}

func (a *probeApp) Finished(iter int64) bool { return a.inner.Finished(iter) }

func (a *probeApp) Close() { a.inner.Close() }

func (a *probeApp) LiveIteration(ctx *core.Ctx) (int64, bool) { return a.inner.LiveIteration(ctx) }

func (a *probeApp) HaloPartners(ctx *core.Ctx) []int { return a.inner.HaloPartners(ctx) }

// tracedComm times the spMVM library's calls into the communication
// layer: one-sided halo posts and queue flushes (halo post), notification
// waits (halo wait, i.e. waiting on neighbours), allreduces and barriers.
type tracedComm struct {
	inner spmvm.Comm
	fc    spmvm.FastComm
	ci    spmvm.CollInto

	postNs, waitNs, collNs int64
	allreduceNs            []int64
	barrierNs              int64
}

func newTracedComm(inner spmvm.Comm) (*tracedComm, error) {
	fc, ok1 := inner.(spmvm.FastComm)
	ci, ok2 := inner.(spmvm.CollInto)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("ftbench: %T lacks FastComm or CollInto; tracing would change the data path", inner)
	}
	return &tracedComm{inner: inner, fc: fc, ci: ci}, nil
}

func (c *tracedComm) Proc() *gaspi.Proc { return c.inner.Proc() }
func (c *tracedComm) Logical() int      { return c.inner.Logical() }
func (c *tracedComm) NumWorkers() int   { return c.inner.NumWorkers() }
func (c *tracedComm) Epoch() int64      { return c.inner.Epoch() }

func (c *tracedComm) WriteNotify(to int, seg gaspi.SegmentID, off int64, data []byte, id gaspi.NotificationID, val int64, q gaspi.QueueID) error {
	t := time.Now()
	err := c.inner.WriteNotify(to, seg, off, data, id, val, q)
	c.postNs += int64(time.Since(t))
	return err
}

func (c *tracedComm) WriteNotifyFrom(to int, seg gaspi.SegmentID, off int64, data []byte, id gaspi.NotificationID, val int64, q gaspi.QueueID) error {
	t := time.Now()
	err := c.fc.WriteNotifyFrom(to, seg, off, data, id, val, q)
	c.postNs += int64(time.Since(t))
	return err
}

func (c *tracedComm) WaitQueue(q gaspi.QueueID) error {
	t := time.Now()
	err := c.inner.WaitQueue(q)
	c.postNs += int64(time.Since(t))
	return err
}

func (c *tracedComm) NotifyWaitsome(seg gaspi.SegmentID, begin gaspi.NotificationID, num int) (gaspi.NotificationID, error) {
	t := time.Now()
	id, err := c.inner.NotifyWaitsome(seg, begin, num)
	c.waitNs += int64(time.Since(t))
	return id, err
}

func (c *tracedComm) PassiveSend(to int, data []byte) error { return c.inner.PassiveSend(to, data) }

func (c *tracedComm) PassiveReceive() (int, []byte, error) { return c.inner.PassiveReceive() }

func (c *tracedComm) allreduceDone(t time.Time) {
	d := int64(time.Since(t))
	c.collNs += d
	c.allreduceNs = append(c.allreduceNs, d)
}

func (c *tracedComm) AllreduceF64(in []float64, op gaspi.ReduceOp) ([]float64, error) {
	t := time.Now()
	out, err := c.inner.AllreduceF64(in, op)
	c.allreduceDone(t)
	return out, err
}

func (c *tracedComm) AllreduceF64Into(in, out []float64, op gaspi.ReduceOp) error {
	t := time.Now()
	err := c.ci.AllreduceF64Into(in, out, op)
	c.allreduceDone(t)
	return err
}

func (c *tracedComm) AllreduceI64(in []int64, op gaspi.ReduceOp) ([]int64, error) {
	t := time.Now()
	out, err := c.inner.AllreduceI64(in, op)
	c.allreduceDone(t)
	return out, err
}

func (c *tracedComm) Barrier() error {
	t := time.Now()
	err := c.inner.Barrier()
	d := int64(time.Since(t))
	c.collNs += d
	c.barrierNs += d
	return err
}
