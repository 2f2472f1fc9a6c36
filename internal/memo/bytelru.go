// Package memo is the engine's cache tier. A Tier is one memoized layer —
// the trace memo (internal/workload), flat views, annotated and bucket
// streams (internal/sim), session passes, curves and model counts
// (internal/exp), the daemon's rendered reports (internal/serve) — and its
// Get (or GetMany, its batch form) is the one implementation of the miss
// path: claim-or-wait in memory, read and verify the artifact-store
// record, build, publish. Records that are only ever read once (stream
// segments, checkpoints, fan-out partials) use a tier's disk half alone.
// Beneath every tier sits a byteLRU: a claim-or-wait map with a
// resident-bytes bound and least-recently-used eviction.
package memo

import "sync"

// byteLRU is a claim-or-wait memo map with a resident-bytes bound and
// least-recently-used eviction.
//
//   - The first claimant of a key owns the build; it must publish the entry
//     with finish exactly once. Later claimants wait on the entry's done
//     channel and share the result.
//   - A resident-bytes bound evicts completed entries least-recently-used
//     first; in-flight entries are never evicted, and eviction never
//     invalidates a build already holding the value — the pointer keeps the
//     payload alive.
//
// Keys may be any comparable type; one cache can hold several key kinds
// (the annotated tier keeps flat views and annotated streams in one
// instance so they share a single budget).
type byteLRU struct {
	mu        sync.Mutex
	entries   map[any]*entry
	bound     uint64 // resident-bytes bound; 0 = unbounded
	clock     uint64
	resident  uint64
	evictions uint64
}

// entry is one cached artifact. done is closed when val/err are final.
type entry struct {
	done    chan struct{}
	val     any
	err     error
	key     any    // the claim key, so finish can drop an errored entry
	built   bool   // finish ran with err == nil; false while in flight
	bytes   uint64 // payload size once built (may legitimately be zero)
	lastUse uint64 // LRU clock tick of the most recent claim
}

// setBound bounds the cache's resident payload bytes; 0 removes the bound.
// A single entry larger than the bound is still admitted (and becomes the
// next eviction candidate).
func (c *byteLRU) setBound(bytes uint64) {
	c.mu.Lock()
	c.bound = bytes
	c.evictLocked()
	c.mu.Unlock()
}

// claim returns the entry for key and whether the caller became its owner.
// An owner must build the value and call finish; a non-owner must wait on
// e.done before reading e.val/e.err.
func (c *byteLRU) claim(key any) (e *entry, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	if e = c.entries[key]; e != nil {
		e.lastUse = c.clock
		return e, false
	}
	e = &entry{done: make(chan struct{}), key: key, lastUse: c.clock}
	if c.entries == nil {
		c.entries = make(map[any]*entry)
	}
	c.entries[key] = e
	return e, true
}

// finish publishes a built entry: records its payload size, closes the done
// channel, and applies the bound. The owner sets e.val/e.err before calling.
//
// An errored entry is dropped from the map instead of published: claimants
// already parked on it still observe the error through the entry pointer,
// but the next claim of the key owns a fresh build — a transient failure is
// never negatively cached for the life of the process.
func (c *byteLRU) finish(e *entry, bytes uint64) {
	c.mu.Lock()
	// Guard on pointer identity: after a reset (or under a successor entry
	// for the same key) a stale owner finishing must neither clobber the
	// map nor charge bytes no entry holds — they would never be released.
	current := c.entries[e.key] == e
	if e.err == nil {
		e.built = true
		e.bytes = bytes
		if current {
			c.resident += bytes
		}
	} else if current {
		delete(c.entries, e.key)
	}
	c.mu.Unlock()
	close(e.done)
	c.mu.Lock()
	c.evictLocked()
	c.mu.Unlock()
}

// evictLocked drops completed entries, least recently used first, until the
// resident bytes fit the bound. In-flight entries (done not yet closed) are
// skipped: their size is unknown and a waiter may be parked on them.
func (c *byteLRU) evictLocked() {
	if c.bound == 0 {
		return
	}
	for c.resident > c.bound {
		var (
			victim any
			found  bool
			oldest uint64
		)
		for k, e := range c.entries {
			if !e.built {
				continue // in flight; a waiter may be parked on it
			}
			if !found || e.lastUse < oldest {
				found, oldest, victim = true, e.lastUse, k
			}
		}
		if !found {
			return // everything resident is in flight; nothing to evict
		}
		c.resident -= c.entries[victim].bytes
		delete(c.entries, victim)
		c.evictions++
	}
}

// reset drops every entry and zeroes the resident and eviction counters,
// retaining the bound.
func (c *byteLRU) reset() {
	c.mu.Lock()
	c.entries = nil
	c.resident = 0
	c.evictions = 0
	c.mu.Unlock()
}

// usage reports the cache's resident payload bytes and evictions so far.
func (c *byteLRU) usage() (resident, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident, c.evictions
}
