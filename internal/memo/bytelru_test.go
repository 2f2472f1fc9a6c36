package memo

import (
	"errors"
	"testing"
)

// TestByteLRUErroredEntryDropped is the regression test for the negative-
// caching bug: an owner whose build fails must not leave the errored entry
// in the map, or every later claim of that key replays the stale error for
// the life of the process. Waiters parked on the failing build still see
// the error; the next claim owns a fresh build.
func TestByteLRUErroredEntryDropped(t *testing.T) {
	var c byteLRU
	boom := errors.New("transient build failure")

	e, owner := c.claim("k")
	if !owner {
		t.Fatal("first claim not owner")
	}
	waiter, waiterOwner := c.claim("k") // parked before the failure publishes
	if waiterOwner {
		t.Fatal("second claim stole ownership")
	}
	e.err = boom
	c.finish(e, 0)
	<-waiter.done
	if waiter.err != boom {
		t.Fatalf("parked waiter saw err=%v, want the owner's failure", waiter.err)
	}

	e2, owner2 := c.claim("k")
	if !owner2 {
		t.Fatalf("claim after failed build not owner: stale err=%v negatively cached", e2.err)
	}
	e2.val = "rebuilt"
	c.finish(e2, 8)

	e3, owner3 := c.claim("k")
	if owner3 || e3.err != nil || e3.val != "rebuilt" {
		t.Fatalf("rebuild not cached: owner=%v err=%v val=%v", owner3, e3.err, e3.val)
	}
	if resident, _ := c.usage(); resident != 8 {
		t.Fatalf("resident = %d, want 8 (failed build must not count)", resident)
	}
}

// TestByteLRUZeroByteEntryEvictable is the regression test for the
// in-flight/empty ambiguity: a successfully built zero-byte payload (an
// empty stream is a legitimate artifact) must be evictable like any other
// completed entry, not mistaken for an in-flight build and pinned forever.
func TestByteLRUZeroByteEntryEvictable(t *testing.T) {
	var c byteLRU
	c.setBound(1)

	empty, owner := c.claim("empty")
	if !owner {
		t.Fatal("claim not owner")
	}
	empty.val = []byte{}
	c.finish(empty, 0) // built, legitimately zero bytes

	big, owner := c.claim("big")
	if !owner {
		t.Fatal("claim not owner")
	}
	big.val = "bb"
	c.finish(big, 2) // resident 2 > bound 1: eviction runs LRU-first

	if _, owner := c.claim("empty"); !owner {
		t.Fatal("zero-byte built entry survived eviction: mistaken for in-flight")
	}
	if _, evictions := c.usage(); evictions != 2 {
		t.Fatalf("evictions = %d, want 2 (empty then big)", evictions)
	}
}

// TestByteLRUInFlightNeverEvicted pins the guard the zero-byte fix must not
// break: an entry whose build is still running is skipped by eviction even
// when the cache is over budget.
func TestByteLRUInFlightNeverEvicted(t *testing.T) {
	var c byteLRU
	c.setBound(1)

	inflight, owner := c.claim("inflight")
	if !owner {
		t.Fatal("claim not owner")
	}

	done, owner := c.claim("done")
	if !owner {
		t.Fatal("claim not owner")
	}
	done.val = "dd"
	c.finish(done, 2) // over budget; only "done" is evictable

	if _, owner := c.claim("inflight"); owner {
		t.Fatal("in-flight entry evicted out from under its waiters")
	}
	inflight.val = "v"
	c.finish(inflight, 1)
}

// TestByteLRUResetDuringBuild is the regression test for the accounting
// leak behind the daemon's memory-pressure release: a build in flight when
// Reset runs must not charge its bytes on Finish, because its entry is no
// longer in the map and nothing would ever release them.
func TestByteLRUResetDuringBuild(t *testing.T) {
	var c byteLRU
	c.setBound(120)
	e, owner := c.claim("inflight")
	if !owner {
		t.Fatal("claim not owner")
	}
	c.reset()
	e.val = "built after the reset"
	c.finish(e, 100)
	if resident, _ := c.usage(); resident != 0 {
		t.Fatalf("resident = %d after a build finished past a Reset, want 0", resident)
	}
	next, owner := c.claim("next")
	if !owner {
		t.Fatal("claim not owner")
	}
	next.val = "fits the bound"
	c.finish(next, 50)
	if _, owner := c.claim("next"); owner {
		t.Fatal("an entry within the bound was evicted on arrival")
	}
	if resident, evictions := c.usage(); resident != 50 || evictions != 0 {
		t.Fatalf("usage = (%d, %d evictions), want (50, 0)", resident, evictions)
	}
}
