package checkpoint

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The restore path. One walk serves every restore: the seal scan
// resolves, from seal metadata alone, the version's base+delta chain and,
// per link, the set of alive stores holding byte-identical copies (same
// generation tag). Each link is then read and CRC-checked:
//
//   - A frame that fits in one stripe is read whole from the cheapest
//     tier (local → neighbor → remote → PFS), falling back tier by tier
//     when a read fails or a copy fails verification.
//   - A frame spanning several stripes with more than one source is read
//     striped: fixed-size stripes fan out to all sources concurrently
//     through a shared work queue, fast sources naturally claim more
//     stripes, a source dying mid-fetch has its stripes re-queued and
//     re-fetched elsewhere (first-complete-wins per stripe). A striped
//     read that fails, or assembles a frame failing verification, falls
//     back to the whole-frame tier walk.
//
// The links are reassembled base-first with an end-to-end payload CRC. A
// chain that cannot be fetched returns its error; the caller's version
// agreement then retreats below the unrestorable version.

// replicaRef is one alive store holding a sealed replica.
type replicaRef struct {
	node int // hosting node id; -1 = the PFS
	src  RestoreSource
	ci   chainInfo
}

// chainLink is one resolved generation of a restore chain: the stores
// holding byte-identical (same-gen) sealed copies of this version.
type chainLink struct {
	version int64
	ci      chainInfo
	sources []replicaRef
}

// sealScan collects, per version, every alive store holding a sealed
// replica of (name, logical) together with the chain identity recorded in
// the seal. Seals are metadata (GetMeta: no modeled transfer cost), so
// the scan is cheap even over the PFS.
func (l *Library) sealScan(name string, logical int) map[int64][]replicaRef {
	out := make(map[int64][]replicaRef)
	nb := l.Neighbor()
	classify := func(nodeID int) RestoreSource {
		switch nodeID {
		case -1:
			return RestorePFS
		case l.nodeID:
			return RestoreLocal
		case nb:
			return RestoreNeighbor
		default:
			return RestoreRemote
		}
	}
	consider := func(nodeID int, keys []string, getMeta func(string) ([]byte, bool)) {
		for _, k := range keys {
			dataKey, isSeal := strings.CutSuffix(k, sealSuffix)
			if !isSeal {
				continue
			}
			kn, kl, kv, ok := parseKey(dataKey)
			if !ok || kn != name || kl != logical {
				continue
			}
			blob, ok := getMeta(k)
			if !ok {
				continue
			}
			sv, ci, ok := parseSeal(blob)
			if !ok || sv != kv {
				continue
			}
			out[kv] = append(out[kv], replicaRef{node: nodeID, src: classify(nodeID), ci: ci})
		}
	}
	for nodeID := 0; nodeID < l.cl.NumNodes(); nodeID++ {
		if !l.cl.NodeAlive(nodeID) {
			continue
		}
		node := l.cl.Node(nodeID)
		consider(nodeID, node.Keys(), node.GetMeta)
	}
	consider(-1, l.cl.PFS().Keys(), l.cl.PFS().GetMeta)
	return out
}

// srcRank orders sources by tier preference (cheapest first).
func srcRank(s RestoreSource) int {
	switch s {
	case RestoreLocal:
		return 0
	case RestoreNeighbor:
		return 1
	case RestoreRemote:
		return 2
	default:
		return 3
	}
}

// resolveChain returns the base-first chain of links needed to reassemble
// version v, or ok=false when no intact chain exists: every link must be
// sealed on at least one alive store, and a delta only links to a
// predecessor sealed with the exact generation tag it was diffed against
// (a version overwritten after a recovery gets a fresh tag, so a forked
// chain is detected as broken instead of being mis-assembled).
func resolveChain(reps map[int64][]replicaRef, v int64) (links []chainLink, ok bool) {
	variants := func(version int64) []chainLink {
		byGen := make(map[uint64]*chainLink)
		var order []uint64
		for _, r := range reps[version] {
			cl, ok := byGen[r.ci.gen]
			if !ok {
				cl = &chainLink{version: version, ci: r.ci}
				byGen[r.ci.gen] = cl
				order = append(order, r.ci.gen)
			}
			cl.sources = append(cl.sources, r)
		}
		out := make([]chainLink, 0, len(order))
		for _, g := range order {
			out = append(out, *byGen[g])
		}
		return out
	}
	// Walk back from v; depth is bounded by the full-base cadence, but a
	// hard cap keeps corrupt prev pointers from looping.
	const maxDepth = 1 << 10
	var walk func(version int64, needGen uint64, depth int) ([]chainLink, bool)
	walk = func(version int64, needGen uint64, depth int) ([]chainLink, bool) {
		if depth > maxDepth {
			return nil, false
		}
		for _, cand := range variants(version) {
			if needGen != 0 && cand.ci.gen != needGen {
				continue
			}
			if cand.ci.kind == KindFull {
				return []chainLink{cand}, true
			}
			tail, ok := walk(cand.ci.prevVer, cand.ci.prevGen, depth+1)
			if !ok {
				continue
			}
			return append(tail, cand), true
		}
		return nil, false
	}
	return walk(v, 0, 0)
}

// FindLatest returns the newest RESTORABLE version of (name, logical):
// the newest version with an intact, fully sealed base+delta chain
// reachable from the alive stores and the PFS. Only sealed replicas
// count — a copy whose flush was torn by a failure (data present, seal
// absent) is invisible, and a delta whose predecessor is gone (or was
// overwritten under a different generation tag) falls back to the newest
// sealed chain prefix. This is what lets the recovery path agree on a
// version that every member can actually reassemble. ok is false when
// nothing restorable exists anywhere.
func (l *Library) FindLatest(name string, logical int) (int64, bool) {
	return l.FindLatestBelow(name, logical, math.MaxInt64)
}

// FindLatestBelow is FindLatest restricted to versions strictly below
// bound. Recovery's version agreement uses it to retreat when some group
// member cannot reassemble the agreed version: with delta chains,
// restorability is not monotonic in version (a broken chain can hole out
// v while v' > v stays intact on a later base), so "my newest" does not
// certify everything below it.
func (l *Library) FindLatestBelow(name string, logical int, bound int64) (int64, bool) {
	reps := l.sealScan(name, logical)
	versions := make([]int64, 0, len(reps))
	for v := range reps {
		if v < bound {
			versions = append(versions, v)
		}
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] > versions[j] })
	for _, v := range versions {
		if _, ok := resolveChain(reps, v); ok {
			return v, true
		}
	}
	return 0, false
}

// FetchFrom is Fetch reporting the replica's source. It resolves the
// version's base+delta chain from seal metadata, fetches and verifies
// every link, and reassembles the payload with end-to-end CRC
// verification. The reported source is the tier that served the most
// bytes (ties break toward the cheaper tier).
func (l *Library) FetchFrom(name string, logical int, version int64) ([]byte, RestoreSource, error) {
	links, ok := resolveChain(l.sealScan(name, logical), version)
	if !ok {
		return nil, RestoreNone, fmt.Errorf("%w: %s", ErrNoCheckpoint, Key(name, logical, version))
	}
	return l.fetchChain(name, logical, links)
}

// fetchChain fetches and reassembles a resolved chain (base first).
func (l *Library) fetchChain(name string, logical int, links []chainLink) ([]byte, RestoreSource, error) {
	var payload []byte
	tierBytes := make(map[RestoreSource]int64)
	for i, link := range links {
		f, err := l.fetchFrame(Key(name, logical, link.version), logical, link, tierBytes)
		if err != nil {
			return nil, RestoreNone, err
		}
		switch f.chain.kind {
		case KindDelta:
			if i == 0 {
				return nil, RestoreNone, fmt.Errorf("%w: chain starts with a delta", ErrCorrupt)
			}
			payload, err = applyDelta(payload, f)
			if err != nil {
				return nil, RestoreNone, err
			}
		default:
			// Every read returns a privately owned blob (the striped
			// assembly buffer, or a store's defensive copy), so the frame
			// payload can serve directly as the mutable reassembly buffer
			// for the deltas above it — no base-sized copy.
			payload = f.payload
		}
	}
	best := RestoreNone
	var bestBytes int64 = -1
	for src, b := range tierBytes {
		if b > bestBytes || (b == bestBytes && srcRank(src) < srcRank(best)) {
			best, bestBytes = src, b
		}
	}
	return payload, best, nil
}

// fetchFrame reads and verifies one link's frame: striped across the
// link's sources when the frame spans more than one stripe, else (and as
// the fallback of a failed striped read) whole from the cheapest source
// that delivers an intact copy. tierBytes accumulates the bytes of the
// verified read per tier for the provenance classification.
func (l *Library) fetchFrame(key string, logical int, link chainLink, tierBytes map[RestoreSource]int64) (*frame, error) {
	sources := append([]replicaRef(nil), link.sources...)
	sort.SliceStable(sources, func(i, j int) bool { return srcRank(sources[i].src) < srcRank(sources[j].src) })
	verify := func(blob []byte) (*frame, error) {
		f, err := decodeFrame(blob)
		if err != nil {
			return nil, err
		}
		if f.logical != logical || f.version != link.version || f.chain.gen != link.ci.gen {
			return nil, fmt.Errorf("%w: replica identity mismatch at v%d", ErrCorrupt, link.version)
		}
		return f, nil
	}
	if size, ok := l.replicaSize(key, sources); ok && len(sources) > 1 {
		if stripe, n := l.stripeLayout(size, len(sources)); n > 1 {
			if blob, got, err := l.fetchStriped(key, sources, size, stripe, n); err == nil {
				if f, err := verify(blob); err == nil {
					for src, b := range got {
						tierBytes[src] += b
					}
					return f, nil
				}
			}
		}
	}
	lastErr := fmt.Errorf("%w: %s", ErrNoCheckpoint, key)
	for _, s := range sources {
		blob, err := l.readWhole(s, key)
		if err != nil {
			lastErr = err
			continue
		}
		f, err := verify(blob)
		if err != nil {
			lastErr = err
			continue
		}
		tierBytes[s.src] += int64(len(blob))
		return f, nil
	}
	return nil, lastErr
}

// replicaSize returns the stored size of key on the first source that
// still holds it.
func (l *Library) replicaSize(key string, sources []replicaRef) (int, bool) {
	for _, s := range sources {
		var n int
		var ok bool
		if s.node < 0 {
			n, ok = l.cl.PFS().Size(key)
		} else {
			n, ok = l.cl.Node(s.node).Size(key)
		}
		if ok {
			return n, true
		}
	}
	return 0, false
}

// stripeLayout sizes the stripes of a striped read: chunk-aligned, but
// targeting a few stripes per source rather than one stripe per chunk —
// each range read pays a per-op latency floor, so sub-megabyte stripes
// would drown the parallelism in fixed costs. A handful of stripes per
// source keeps the work queue balancing (fast sources claim more) and
// bounds the re-fetch cost when a source dies mid-stripe. A frame of at
// most one chunk is a single stripe.
func (l *Library) stripeLayout(size, sources int) (stripe, n int) {
	const stripesPerSource = 4
	chunk := l.cfg.ChunkSize()
	stripe = (size + stripesPerSource*sources - 1) / (stripesPerSource * sources)
	stripe = max((stripe+chunk-1)/chunk*chunk, chunk)
	return stripe, (size + stripe - 1) / stripe
}

func (l *Library) readWhole(s replicaRef, key string) ([]byte, error) {
	if s.node < 0 {
		return l.cl.PFS().Get(key)
	}
	return l.cl.Node(s.node).Get(key, l.storage())
}

func (l *Library) readRange(s replicaRef, key string, off, length int) ([]byte, error) {
	if s.node < 0 {
		return l.cl.PFS().GetRange(key, off, length)
	}
	return l.cl.Node(s.node).GetRange(key, off, length, l.storage())
}

// fetchStriped reads one blob of size bytes, in nStripes stripes, from
// several byte-identical sources concurrently: stripes go through a shared
// work queue (fast sources claim more), a failed source re-queues its
// stripe and retires, and the first completed copy of each stripe wins.
// got is the bytes each tier delivered. Fails only when every source dies
// with stripes outstanding.
func (l *Library) fetchStriped(key string, sources []replicaRef, size, stripe, nStripes int) (buf []byte, got map[RestoreSource]int64, err error) {
	buf = make([]byte, size)
	pending := make(chan int, nStripes+len(sources))
	for i := 0; i < nStripes; i++ {
		pending <- i
	}
	claimed := make([]atomic.Bool, nStripes)
	var remaining atomic.Int64
	remaining.Store(int64(nStripes))
	done := make(chan struct{})

	got = make(map[RestoreSource]int64)
	var tierMu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range sources {
		wg.Add(1)
		go func(s replicaRef) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case idx := <-pending:
					if claimed[idx].Load() {
						continue // re-queued stripe another source already won
					}
					if h := l.stripeHook; h != nil {
						h(s.node, idx)
					}
					off := idx * stripe
					n := min(stripe, size-off)
					data, err := l.readRange(s, key, off, n)
					if err != nil {
						// Source gone: hand the stripe back and retire.
						pending <- idx
						return
					}
					if claimed[idx].CompareAndSwap(false, true) {
						copy(buf[off:], data)
						tierMu.Lock()
						got[s.src] += int64(n)
						tierMu.Unlock()
						if remaining.Add(-1) == 0 {
							close(done)
						}
					}
				}
			}
		}(s)
	}
	exhausted := make(chan struct{})
	go func() { wg.Wait(); close(exhausted) }()
	select {
	case <-done:
	case <-exhausted:
	}
	if remaining.Load() != 0 {
		return nil, nil, fmt.Errorf("checkpoint: striped read of %s: all %d sources failed with %d stripes outstanding",
			key, len(sources), remaining.Load())
	}
	// Every stripe is claimed, so no source writes got any more.
	tierMu.Lock()
	defer tierMu.Unlock()
	return buf, got, nil
}
