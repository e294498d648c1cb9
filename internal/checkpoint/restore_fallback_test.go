package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestRestoreFallsBackNeighborThenPFS is the whole-node-failure
// regression test: a checkpoint whose node-local copy is destroyed by a
// node failure must restore from the neighbor replica, and when the
// neighbor node dies too, from the PFS copy. It runs with every
// generation a full base (FullEvery 0) and with delta chains on
// (FullEvery 8); the first generation is a full base either way.
func TestRestoreFallsBackNeighborThenPFS(t *testing.T) {
	for _, fullEvery := range []int{0, 8} {
		t.Run(fmt.Sprintf("full-every-%d", fullEvery), func(t *testing.T) {
			testRestoreFallsBackNeighborThenPFS(t, fullEvery)
		})
	}
}

func testRestoreFallsBackNeighborThenPFS(t *testing.T, fullEvery int) {
	cl := testCluster(t, 4)
	payload := []byte("lanczos state v1")

	// The victim worker lives on node 1; its neighbor in the worker ring
	// {1,2,3} is node 2, and every version also goes to the PFS.
	victim := New(cl, 1, Config{PFSEvery: 1, FullEvery: fullEvery})
	defer victim.Stop()
	victim.SetWorkerNodes([]int{1, 2, 3})
	if err := victim.Write("state", 0, 1, payload); err != nil {
		t.Fatal(err)
	}
	victim.WaitIdle()

	// Intact node: the local copy wins.
	got, src, err := victim.FetchFrom("state", 0, 1)
	if err != nil || !bytes.Equal(got, payload) || src != RestoreLocal {
		t.Fatalf("local fetch: src=%v err=%v", src, err)
	}

	// The victim's whole node dies, wiping its local store. A rescue on
	// node 3 (whose ring neighbor among the survivors {2,3} is node 2 —
	// exactly where the victim's replica was pushed) must restore from
	// the neighbor replica.
	cl.KillNode(1)
	rescue := New(cl, 3, Config{})
	defer rescue.Stop()
	rescue.SetWorkerNodes([]int{2, 3})
	if v, ok := rescue.FindLatest("state", 0); !ok || v != 1 {
		t.Fatalf("FindLatest after node loss: v=%d ok=%v", v, ok)
	}
	got, src, err = rescue.FetchFrom("state", 0, 1)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("neighbor fetch: err=%v", err)
	}
	if src != RestoreNeighbor {
		t.Fatalf("restore source = %v, want neighbor", src)
	}

	// The replica node dies too: only the PFS copy remains.
	cl.KillNode(2)
	if v, ok := rescue.FindLatest("state", 0); !ok || v != 1 {
		t.Fatalf("FindLatest after double node loss: v=%d ok=%v", v, ok)
	}
	got, src, err = rescue.FetchFrom("state", 0, 1)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("PFS fetch: err=%v", err)
	}
	if src != RestorePFS {
		t.Fatalf("restore source = %v, want pfs", src)
	}
}

// TestRestoreFallbackExhausted: with no PFS copy configured, destroying
// both the local store and the replica node leaves nothing — FindLatest
// must report no version and FetchFrom must fail cleanly, which is what
// lets recovery agree on an older (or no) version instead of hanging on a
// replica that exists nowhere.
func TestRestoreFallbackExhausted(t *testing.T) {
	cl := testCluster(t, 3)
	lib := New(cl, 0, Config{})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{0, 1, 2})
	if err := lib.Write("state", 0, 1, []byte("only copy")); err != nil {
		t.Fatal(err)
	}
	lib.WaitIdle()
	cl.KillNode(0) // local
	cl.KillNode(1) // neighbor replica
	survivor := New(cl, 2, Config{})
	defer survivor.Stop()
	survivor.SetWorkerNodes([]int{2})
	if v, ok := survivor.FindLatest("state", 0); ok {
		t.Fatalf("FindLatest found v%d with every replica destroyed", v)
	}
	_, src, err := survivor.FetchFrom("state", 0, 1)
	if !errors.Is(err, ErrNoCheckpoint) || src != RestoreNone {
		t.Fatalf("want ErrNoCheckpoint/none, got src=%v err=%v", src, err)
	}
}

// TestSingleStripeReadsCheapestTier: a frame that fits in one stripe is
// read whole from the cheapest tier, even when other tiers hold
// byte-identical copies. The local node's striped reads are stalled, so a
// fetcher that races its sources for the one stripe reports the neighbor
// (or, when the local source claims the stripe first, still shows up in
// the hook); the whole-frame read reports local and never stripes.
func TestSingleStripeReadsCheapestTier(t *testing.T) {
	cl := testCluster(t, 3)
	lib := New(cl, 1, Config{FullEvery: 8})
	defer lib.Stop()
	lib.SetWorkerNodes([]int{1, 2})
	payload := []byte("small lanczos state")
	if err := lib.Write("state", 0, 1, payload); err != nil {
		t.Fatal(err)
	}
	lib.WaitIdle()
	if _, ok := cl.Node(2).GetMeta(SealKey(Key("state", 0, 1))); !ok {
		t.Fatal("neighbor replica missing: the read would have one source")
	}
	var striped atomic.Int64
	lib.stripeHook = func(nodeID, stripe int) {
		striped.Add(1)
		if nodeID == 1 {
			time.Sleep(20 * time.Millisecond)
		}
	}
	got, src, err := lib.FetchFrom("state", 0, 1)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("fetch: %q, %v", got, err)
	}
	if src != RestoreLocal {
		t.Fatalf("restore source = %v, want local", src)
	}
	if n := striped.Load(); n != 0 {
		t.Fatalf("single-stripe frame read striped (%d range reads)", n)
	}
}
