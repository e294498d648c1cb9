package main

import (
	"encoding/json"
	"io"
	"maps"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/lanczos"
	"repro/internal/matrix"
)

// rows returns every row of g, flattened.
func rows(g matrix.Generator) ([]int64, []float64) {
	var cols, rc []int64
	var vals, rv []float64
	for i := int64(0); i < g.Dim(); i++ {
		// Row merges duplicate columns within what it is handed, so each
		// row starts from an empty buffer.
		rc, rv = g.Row(i, rc[:0], rv[:0])
		cols = append(cols, rc...)
		vals = append(vals, rv...)
	}
	return cols, vals
}

func TestSameSeedSameWorkload(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7)
		c, _ := newWorkload(name, 8)
		ac, av := rows(a.gen())
		bc, bv := rows(b.gen())
		if !slices.Equal(ac, bc) || !slices.Equal(av, bv) {
			t.Errorf("%s: same seed generated different matrix rows", name)
		}
		if !reflect.DeepEqual(a.kills, b.kills) {
			t.Errorf("%s: same seed generated different kill schedules", name)
		}
		if _, cv := rows(c.gen()); slices.Equal(av, cv) {
			t.Errorf("%s: a different seed left the matrix unchanged", name)
		}
	}
}

// smoke shrinks a workload's matrix; the job shape and kill schedule stay.
func smoke(t *testing.T, name string) (workload, float64) {
	t.Helper()
	w, err := newWorkload(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	w.nx, w.ny = 32, 16
	ref, err := lanczos.SerialLowestEigs(w.gen(), w.iters, 2, uint64(w.seed))
	if err != nil {
		t.Fatal(err)
	}
	return w, ref[0]
}

func TestSmokeRuns(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, ref := smoke(t, name)
			plain := runOnce(w, ref, false)
			if plain.err != nil {
				t.Fatalf("untraced: %v", plain.err)
			}
			if plain.solveS <= 0 || plain.setupS <= 0 || plain.peakHeapMB <= 0 {
				t.Errorf("end-to-end metrics not positive: solve %v setup %v heap %v",
					plain.solveS, plain.setupS, plain.peakHeapMB)
			}
			tr := runOnce(w, ref, true)
			if tr.err != nil {
				t.Fatalf("traced: %v", tr.err)
			}
			for _, m := range perLayer {
				if _, ok := tr.layer[m.name]; !ok && m.name != "lanczos.serial_s" && m.name != "trace.overhead_pct" {
					t.Errorf("traced run lacks per-layer metric %s", m.name)
				}
			}
			if err := w.sameProgram(tr, plain); err != nil {
				t.Error(err)
			}
			if f := tr.layer["spmvm.fastpath_frac"]; f != 1 {
				t.Errorf("spmvm.fastpath_frac %v, want 1", f)
			}
			if w.replication > 0 && tr.layer["ft.redo_iters"] != 0 {
				t.Errorf("failover redid %v iterations", tr.layer["ft.redo_iters"])
			}
			if w.numKills() > 0 {
				var sum float64
				for _, p := range ttrPhases {
					sum += tr.layer[p.name]
				}
				if ttr := tr.layer["ft.ttr_ms"]; ttr <= 0 || sum > ttr*(1+1e-9) || sum < ttr*(1-1e-9) {
					t.Errorf("TTR phases sum to %v ms, ft.ttr_ms %v", sum, ttr)
				}
			}
		})
	}
}

// The recover schedule's redo range: 12 iterations past the checkpoint
// at each of six kills, seven survivors each, one fewer per survivor
// caught in the iteration before the kill.
func TestRecoverRedoRange(t *testing.T) {
	w, err := newWorkload("recover", 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := w.redoRange(); lo != 462 || hi != 504 {
		t.Fatalf("redo range %d..%d, want 462..504", lo, hi)
	}
}

// A kill schedule that outlasts the spares must be reported as failed
// runs: every solve is attempted once and counted, none retried or
// dropped.
func TestSparesExhaustedCountsAsFailed(t *testing.T) {
	w, _ := smoke(t, "recover")
	w.spares = 2 // six kills, two spares
	rep := run(w, 0, false, io.Discard)
	if rep.Correct || rep.Attempted != minRuns+1 || rep.Failed != rep.Attempted {
		t.Fatalf("report %+v, want all %d attempted runs failed", rep, minRuns+1)
	}
}

// BENCHMARK.json names exactly the metrics and workloads this program
// reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	if !slices.Equal(names, benchWorkloads) {
		t.Errorf("workloads %v, program benchmarks %v", names, benchWorkloads)
	}
	units := func(ms []metric) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			out[m.name] = m.unit
		}
		return out
	}
	specUnits := func(ms []struct{ Name, Unit string }) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	if got, want := specUnits(spec.EndToEnd), units(endToEnd); !maps.Equal(got, want) {
		t.Errorf("end_to_end %v, program reports %v", got, want)
	}
	if got, want := specUnits(spec.PerLayer), units(perLayer); !maps.Equal(got, want) {
		t.Errorf("per_layer %v, program reports %v", got, want)
	}
}
