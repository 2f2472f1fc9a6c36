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
	var c ByteLRU
	boom := errors.New("transient build failure")

	e, owner := c.Claim("k")
	if !owner {
		t.Fatal("first claim not owner")
	}
	waiter, waiterOwner := c.Claim("k") // parked before the failure publishes
	if waiterOwner {
		t.Fatal("second claim stole ownership")
	}
	e.Err = boom
	c.Finish(e, 0)
	<-waiter.Done
	if waiter.Err != boom {
		t.Fatalf("parked waiter saw err=%v, want the owner's failure", waiter.Err)
	}

	e2, owner2 := c.Claim("k")
	if !owner2 {
		t.Fatalf("claim after failed build not owner: stale err=%v negatively cached", e2.Err)
	}
	e2.Val = "rebuilt"
	c.Finish(e2, 8)

	e3, owner3 := c.Claim("k")
	if owner3 || e3.Err != nil || e3.Val != "rebuilt" {
		t.Fatalf("rebuild not cached: owner=%v err=%v val=%v", owner3, e3.Err, e3.Val)
	}
	if resident, _ := c.Usage(); resident != 8 {
		t.Fatalf("resident = %d, want 8 (failed build must not count)", resident)
	}
}

// TestByteLRUZeroByteEntryEvictable is the regression test for the
// in-flight/empty ambiguity: a successfully built zero-byte payload (an
// empty stream is a legitimate artifact) must be evictable like any other
// completed entry, not mistaken for an in-flight build and pinned forever.
func TestByteLRUZeroByteEntryEvictable(t *testing.T) {
	var c ByteLRU
	c.SetBound(1)

	empty, owner := c.Claim("empty")
	if !owner {
		t.Fatal("claim not owner")
	}
	empty.Val = []byte{}
	c.Finish(empty, 0) // built, legitimately zero bytes

	big, owner := c.Claim("big")
	if !owner {
		t.Fatal("claim not owner")
	}
	big.Val = "bb"
	c.Finish(big, 2) // resident 2 > bound 1: eviction runs LRU-first

	if _, owner := c.Claim("empty"); !owner {
		t.Fatal("zero-byte built entry survived eviction: mistaken for in-flight")
	}
	if _, evictions := c.Usage(); evictions != 2 {
		t.Fatalf("evictions = %d, want 2 (empty then big)", evictions)
	}
}

// TestByteLRUInFlightNeverEvicted pins the guard the zero-byte fix must not
// break: an entry whose build is still running is skipped by eviction even
// when the cache is over budget.
func TestByteLRUInFlightNeverEvicted(t *testing.T) {
	var c ByteLRU
	c.SetBound(1)

	inflight, owner := c.Claim("inflight")
	if !owner {
		t.Fatal("claim not owner")
	}

	done, owner := c.Claim("done")
	if !owner {
		t.Fatal("claim not owner")
	}
	done.Val = "dd"
	c.Finish(done, 2) // over budget; only "done" is evictable

	if _, owner := c.Claim("inflight"); owner {
		t.Fatal("in-flight entry evicted out from under its waiters")
	}
	inflight.Val = "v"
	c.Finish(inflight, 1)
}

// TestByteLRUResetDuringBuild is the regression test for the accounting
// leak behind the daemon's memory-pressure release: a build in flight when
// Reset runs must not charge its bytes on Finish, because its entry is no
// longer in the map and nothing would ever release them.
func TestByteLRUResetDuringBuild(t *testing.T) {
	var c ByteLRU
	c.SetBound(120)
	e, owner := c.Claim("inflight")
	if !owner {
		t.Fatal("claim not owner")
	}
	c.Reset()
	e.Val = "built after the reset"
	c.Finish(e, 100)
	if resident, _ := c.Usage(); resident != 0 {
		t.Fatalf("resident = %d after a build finished past a Reset, want 0", resident)
	}
	next, owner := c.Claim("next")
	if !owner {
		t.Fatal("claim not owner")
	}
	next.Val = "fits the bound"
	c.Finish(next, 50)
	if _, owner := c.Claim("next"); owner {
		t.Fatal("an entry within the bound was evicted on arrival")
	}
	if resident, evictions := c.Usage(); resident != 50 || evictions != 0 {
		t.Fatalf("usage = (%d, %d evictions), want (50, 0)", resident, evictions)
	}
}
