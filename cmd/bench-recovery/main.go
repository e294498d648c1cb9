// Command bench-recovery seeds the repo's second performance trajectory:
// where bench-hotpath tracks the healthy-state data plane, this measures
// the cost of surviving a failure — the paper's actual headline metric —
// and emits BENCH_recovery.json.
//
// Three measurements:
//
//   - Checkpoint visible cost vs dirty fraction (10%/50%/100%): the
//     application-visible Write time with every generation a full base
//     vs delta generations (chunk-hash diff, dirty chunks only, full base
//     every FullEvery-th generation), plus the neighbor replication bytes
//     each arm ships.
//   - Restore bandwidth: one checkpoint generation restored by the same
//     fetcher from a single replica and from every replica at once
//     (stripes fanned out to all intact copies concurrently).
//   - End-to-end time-to-recover: the scenario engine's mid-iteration
//     kill -9 with the delta engine enabled, decomposed into
//     detect → ack → rebuild → restore from the trace counters, and
//     required to classify as recovered.
//
// Usage: go run ./cmd/bench-recovery [-payload N] [-versions N] [-out FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/experiment"
)

type output struct {
	Benchmark  string                         `json:"benchmark"`
	GOOS       string                         `json:"goos"`
	GOARCH     string                         `json:"goarch"`
	NumCPU     int                            `json:"num_cpu"`
	Checkpoint []experiment.CheckpointCostRow `json:"checkpoint_cost"`
	Restore    experiment.RestoreBenchRow     `json:"restore"`
	// RestoreRetired is the last measurement of the removed sequential
	// tier-walk restore. This tool no longer measures it; it carries the
	// record over from the file it overwrites.
	RestoreRetired json.RawMessage   `json:"restore_retired_sequential,omitempty"`
	TTR            experiment.TTRRow `json:"ttr"`
	// TTRLocalized is the same kill measured under the localized
	// O(degree) repair instead of the global recommit.
	TTRLocalized experiment.TTRRow `json:"ttr_localized"`
	// TTRFailover is the same kill with the victim carrying a hot shadow:
	// localized repair plus zero-restore takeover (no restore phase, no
	// recomputed iterations).
	TTRFailover experiment.TTRRow `json:"ttr_failover"`
}

func main() {
	payload := flag.Int("payload", 4<<20, "checkpoint payload bytes (visible-cost arm)")
	chunk := flag.Int("chunk", 64<<10, "delta/stripe chunk bytes")
	versions := flag.Int("versions", 10, "measured checkpoint epochs per arm")
	fullEvery := flag.Int("full-every", 8, "delta engine full-base cadence")
	restoreMB := flag.Int("restore-mb", 8, "restore-arm blob size (MiB)")
	replicas := flag.Int("replicas", 3, "node replicas for the striped restore (plus one PFS copy)")
	out := flag.String("out", "BENCH_recovery.json", "output file")
	flag.Parse()

	cfg := experiment.RecoveryBenchConfig{
		PayloadBytes: *payload,
		ChunkBytes:   *chunk,
		Versions:     *versions,
		FullEvery:    *fullEvery,
		RestoreBytes: *restoreMB << 20,
		Replicas:     *replicas,
	}

	fmt.Printf("checkpoint visible cost: %d KiB payload, %d epochs/arm, full base every %d\n",
		*payload>>10, *versions, *fullEvery)
	rows, err := experiment.RunCheckpointCost(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkpoint arm:", err)
		os.Exit(1)
	}
	for _, r := range rows {
		fmt.Printf("  %3.0f%% dirty: full %.2f ms, delta %.2f ms (%.2fx); repl %d KiB -> %d KiB (%d full + %d delta frames)\n",
			r.DirtyFrac*100, r.FullMs, r.DeltaMs, r.Speedup,
			r.FullReplBytes>>10, r.DeltaReplBytes>>10, r.FullFrames, r.DeltaFrames)
	}

	fmt.Printf("restore bandwidth: %d MiB blob, %d node replicas + PFS\n", *restoreMB, *replicas)
	restore, err := experiment.RunRestoreBench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "restore arm:", err)
		os.Exit(1)
	}
	fmt.Printf("  1 replica:  %.2f ms (%.0f MB/s)\n", restore.SingleMs, restore.SingleMBpS)
	fmt.Printf("  %d replicas: %.2f ms (%.0f MB/s, %.2fx)\n", restore.Sources, restore.StripedMs, restore.StripedMBpS, restore.Speedup)

	fmt.Println("end-to-end time-to-recover: kill -9 mid-iteration, delta engine")
	ttr, err := experiment.RunTTRBench(cfg, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttr arm:", err)
		os.Exit(1)
	}
	fmt.Printf("  global:    outcome %s in %.2f s wall; detect %.2f + ack %.2f + rebuild %.2f + restore %.2f = ttr %.2f ms (restores l/n/r/p %s)\n",
		ttr.Outcome, ttr.WallS, ttr.DetectMs, ttr.AckMs, ttr.RebuildMs, ttr.RestoreMs, ttr.TTRMs, ttr.RestoreSources)
	ttrLoc, err := experiment.RunTTRBench(cfg, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttr localized arm:", err)
		os.Exit(1)
	}
	fmt.Printf("  localized: outcome %s in %.2f s wall; detect %.2f + ack %.2f + localized %.2f + restore %.2f = ttr %.2f ms (restores l/n/r/p %s)\n",
		ttrLoc.Outcome, ttrLoc.WallS, ttrLoc.DetectMs, ttrLoc.AckMs, ttrLoc.LocalizedMs, ttrLoc.RestoreMs, ttrLoc.TTRMs, ttrLoc.RestoreSources)
	ttrFo, err := experiment.RunTTRBenchMode(cfg, experiment.TTRFailover)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttr failover arm:", err)
		os.Exit(1)
	}
	fmt.Printf("  failover:  outcome %s in %.2f s wall; detect %.2f + ack %.2f + localized %.2f + failover %.2f + restore %.2f = ttr %.2f ms (iters lost %d)\n",
		ttrFo.Outcome, ttrFo.WallS, ttrFo.DetectMs, ttrFo.AckMs, ttrFo.LocalizedMs, ttrFo.FailoverMs, ttrFo.RestoreMs, ttrFo.TTRMs, ttrFo.ItersLost)

	res := output{
		Benchmark:    "recovery",
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		Checkpoint:   rows,
		Restore:      restore,
		TTR:          ttr,
		TTRLocalized: ttrLoc,
		TTRFailover:  ttrFo,
	}
	if prev, err := os.ReadFile(*out); err == nil {
		var old output
		if json.Unmarshal(prev, &old) == nil {
			res.RestoreRetired = old.RestoreRetired
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
