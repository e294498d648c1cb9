// Command ftbench is the time-to-solution benchmark of the fault-tolerant
// Lanczos application: it launches the paper's FT-Lanczos job through
// core.Launch on the simulated cluster, again and again for a fixed
// time, and checks every run's lowest eigenvalue against the serial
// reference and its recovery structure against the kill schedule.
//
//	go run . --workload solve --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (solve_s, setup_s,
// peak_heap_mb); with --trace 1 it alternates untraced and traced runs
// and prints the per-layer metrics plus the tracing overhead. The last
// line of standard output is one JSON object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/lanczos"
)

// metric is one reported metric with its unit.
type metric struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, one value per solve,
// reported as the interquartile mean over the run's solves.
var endToEnd = []metric{
	{"solve_s", "s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run, medians over its traced
// solves (see README.md for the layer → end-to-end map).
var perLayer = []metric{
	{"apps.init_ms", "ms"},
	{"apps.rebuild_ms", "ms"},
	{"apps.step_us.p50", "us"},
	{"apps.step_us.p99", "us"},
	{"apps.steps", "count"},
	{"apps.checkpoint_us", "us"},
	{"apps.restore_ms", "ms"},
	{"spmvm.compute_us", "us"},
	{"spmvm.halo_post_us", "us"},
	{"spmvm.halo_wait_us", "us"},
	{"spmvm.fastpath_frac", "ratio"},
	{"gaspi.allreduce_us.p50", "us"},
	{"gaspi.allreduce_us.p99", "us"},
	{"gaspi.allreduce_per_step", "count"},
	{"gaspi.barrier_ms", "ms"},
	{"fabric.msgs_per_step", "count"},
	{"fabric.bytes_per_step", "B"},
	{"fabric.fast_frac", "ratio"},
	{"fabric.wakes_per_msg", "ratio"},
	{"fabric.nacks", "count"},
	{"fabric.dropped", "count"},
	{"checkpoint.visible_ms", "ms"},
	{"checkpoint.writes", "count"},
	{"checkpoint.mirror_frames", "count"},
	{"checkpoint.restore_from_local", "count"},
	{"checkpoint.restore_from_neighbor", "count"},
	{"checkpoint.restore_from_remote", "count"},
	{"checkpoint.restore_from_pfs", "count"},
	{"ft.detect_ms", "ms"},
	{"ft.ack_ms", "ms"},
	{"ft.rebuild_ms", "ms"},
	{"ft.localized_ms", "ms"},
	{"ft.failover_ms", "ms"},
	{"ft.restore_ms", "ms"},
	{"ft.ttr_ms", "ms"},
	{"ft.redo_iters", "count"},
	{"ft.recoveries", "count"},
	{"ft.epoch_restarts", "count"},
	{"ft.fd_scans", "count"},
	{"ft.fd_pings", "count"},
	{"ft.fd_scan_ms", "ms"},
	{"lanczos.serial_s", "s"},
	{"trace.overhead_pct", "%"},
}

// minRuns is the fewest measured solves per kind (untraced, traced) a
// run makes, however short --seconds is, unless minRunsWindow has passed:
// failed solves can each take solveTimeout, and the whole run must end
// within three minutes.
const (
	minRuns       = 3
	minRunsWindow = 60 * time.Second
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: solve, recover or failover")
	seed := flag.Int64("seed", 1, "workload seed (matrix disorder, start vector, fabric jitter)")
	seconds := flag.Int("seconds", 30, "measuring time in seconds")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	w, err := newWorkload(*name, *seed)
	if err == nil && (*seconds < 1 || (*traced != 0 && *traced != 1)) {
		err = fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	// The cluster is simulated in one process; ranks are goroutines.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	fmt.Printf("host: cpus=%d gomaxprocs=%d go=%s seed=%d workload=%s trace=%d\n",
		runtime.NumCPU(), procs, runtime.Version(), *seed, w.name, *traced)

	rep := run(w, time.Duration(*seconds)*time.Second, *traced == 1, os.Stdout)
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run performs one benchmark run: set-up (the serial reference), then
// measured solves until the time is up. Every solve counts as attempted;
// a failed one is reported, never retried.
func run(w workload, budget time.Duration, traced bool, log io.Writer) report {
	t := time.Now()
	ref, err := lanczos.SerialLowestEigs(w.gen(), w.iters, 2, uint64(w.seed))
	serialS := time.Since(t).Seconds()
	rep := report{Metrics: make(map[string]value)}
	if err != nil {
		fmt.Fprintln(log, "serial reference:", err)
		rep.Attempted, rep.Failed = 1, 1
		return rep
	}
	refEig := ref[0]

	var plain, tr []runResult
	var base *runResult // the first successful untraced solve
	wrong := 0
	attempt := func(tracedRun bool) runResult {
		r := runOnce(w, refEig, tracedRun)
		rep.Attempted++
		kind := "untraced"
		if tracedRun {
			kind = "traced"
			if r.err == nil && base != nil {
				if err := w.sameProgram(r, *base); err != nil {
					r.err, r.wrong = err, true
				}
			}
		} else if r.err == nil && base == nil {
			base = &r
		}
		if r.err != nil {
			rep.Failed++
			if r.wrong {
				wrong++
			}
			fmt.Fprintf(log, "solve %d (%s) FAILED: %v\n", rep.Attempted, kind, r.err)
			return r
		}
		fmt.Fprintf(log, "solve %d (%s): solve_s=%.4f setup_s=%.4f peak_heap_mb=%.1f fastpath_iters=%d redo_iters=%d shadow_failovers=%d\n",
			rep.Attempted, kind, r.solveS, r.setupS, r.peakHeapMB, r.fastpathIters, r.redoIters, r.shadowFailovers)
		return r
	}
	// One warm-up solve: checked and counted as attempted, not measured.
	attempt(false)
	start := time.Now()
	for {
		el := time.Since(start)
		short := len(plain) < minRuns || (traced && len(tr) < minRuns)
		if el >= budget && (!short || el >= minRunsWindow) {
			break
		}
		plain = append(plain, attempt(false))
		if traced {
			tr = append(tr, attempt(true))
		}
	}

	ok := succeeded(plain)
	if traced {
		ok2 := succeeded(tr)
		layer := make(map[string][]float64)
		for _, r := range ok2 {
			for k, v := range r.layer {
				layer[k] = append(layer[k], v)
			}
		}
		for _, m := range perLayer {
			var v float64
			switch m.name {
			case "lanczos.serial_s":
				v = serialS
			case "trace.overhead_pct":
				solve := func(r runResult) float64 { return r.solveS }
				if base := midMean(field(ok, solve)); base > 0 && len(ok2) > 0 {
					v = 100 * (midMean(field(ok2, solve))/base - 1)
				}
			default:
				v = median(layer[m.name])
			}
			rep.Metrics[m.name] = value{v, m.unit}
		}
	} else {
		for _, m := range endToEnd {
			var f func(runResult) float64
			switch m.name {
			case "solve_s":
				f = func(r runResult) float64 { return r.solveS }
			case "setup_s":
				f = func(r runResult) float64 { return r.setupS }
			case "peak_heap_mb":
				f = func(r runResult) float64 { return r.peakHeapMB }
			}
			rep.Metrics[m.name] = value{midMean(field(ok, f)), m.unit}
		}
	}
	// Correct means no run completed with a wrong output. Runs that hung
	// or ended unrecoverable are failed, not incorrect.
	rep.Correct = wrong == 0 && len(ok) > 0

	fmt.Fprintf(log, "%s: %d solves attempted, %d failed, %d measured untraced, %d traced\n",
		w.name, rep.Attempted, rep.Failed, len(plain), len(tr))
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(log, "  %-34s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	return rep
}

// succeeded returns the successful runs.
func succeeded(rs []runResult) []runResult {
	var out []runResult
	for _, r := range rs {
		if r.err == nil {
			out = append(out, r)
		}
	}
	return out
}

func field(rs []runResult, f func(runResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// median of xs; 0 when empty (only possible when every run failed, which
// the report already marks as incorrect).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midMean is the interquartile mean of xs: the mean of its middle half.
// Like the median it ignores the outer quartiles, but it moves smoothly
// when the samples fall into two modes (detection landing early or late,
// a GC cycle catching a transient peak), where the median jumps between
// them from one run to the next.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	lo, hi := n/4, n-n/4
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}
