package memo

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"branchconf/internal/artifact"
	"branchconf/internal/faultfs"
)

// strTier returns a fresh tier of string values persisted as KindCurve
// records. A stored payload decodes only with its "v=" prefix.
func strTier() *Tier[string, string] {
	return &Tier[string, string]{
		Name:   "test",
		Kind:   artifact.KindCurve,
		Key:    func(k string) string { return "test|" + k },
		Encode: func(v string) []byte { return []byte("v=" + v) },
		Decode: func(b []byte) (string, error) {
			if !bytes.HasPrefix(b, []byte("v=")) {
				return "", errors.New("not a test payload")
			}
			return string(b[2:]), nil
		},
		Size: func(v string) uint64 { return uint64(len(v)) },
	}
}

// memTier returns a fresh memory-only tier of string values.
func memTier() *Tier[string, string] {
	return &Tier[string, string]{Name: "mem", Size: func(v string) uint64 { return uint64(len(v)) }}
}

// withStore opens a store on a temp dir over fsys (nil = the real disk)
// and makes it the default store for the rest of the test.
func withStore(t *testing.T, fsys artifact.FS) *artifact.Store {
	t.Helper()
	s, err := artifact.OpenStore(t.TempDir(), artifact.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	artifact.SetDefault(s)
	t.Cleanup(func() {
		artifact.SetDefault(nil)
		s.Close()
	})
	return s
}

// value returns a build that yields v and counts its calls in n.
func value(v string, n *atomic.Int32) func() (string, error) {
	return func() (string, error) {
		n.Add(1)
		return v, nil
	}
}

// mustGet is tier.Get that fails the test on an error.
func mustGet(t *testing.T, tier *Tier[string, string], key string, accept func(string) bool, build func() (string, error)) string {
	t.Helper()
	v, err := tier.Get(key, accept, build)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// stored reads key's raw record payload straight from the store.
func stored(s *artifact.Store, key string) (string, bool) {
	b, ok := s.Get(artifact.KindCurve, "test|"+key)
	return string(b), ok
}

// claims reports how many claims the tier's memory has seen.
func claims[K comparable, V any](t *Tier[K, V]) uint64 {
	m := t.lru()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clock
}

// TestTierConcurrentGetsBuildOnce: many concurrent Gets of one key run one
// load and one build, publish one record, and all see the built value.
func TestTierConcurrentGetsBuildOnce(t *testing.T) {
	store := withStore(t, nil)
	tier := strTier()
	const callers = 16
	release := make(chan struct{})
	var builds atomic.Int32
	got := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := tier.Get("k", nil, func() (string, error) {
				builds.Add(1)
				<-release
				return "value", nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	for claims(tier) < callers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, v := range got {
		if v != "value" {
			t.Fatalf("caller %d got %q", i, v)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds, want 1", n)
	}
	st := tier.Stats()
	if st.Hits != callers-1 || st.Misses != 1 || st.ResidentBytes != uint64(len("value")) {
		t.Fatalf("tier stats %+v, want %d hits, 1 miss, %d resident bytes", st, callers-1, len("value"))
	}
	if ds := store.Stats(); ds.Misses != 1 || ds.Hits != 0 {
		t.Fatalf("store stats %+v, want exactly one disk read (a miss)", ds)
	}
	if p, ok := stored(store, "k"); !ok || p != "v=value" {
		t.Fatalf("published record %q (found %v), want %q", p, ok, "v=value")
	}
}

// TestTierDiskHitSkipsBuild: with memory cold and the record on disk, Get
// serves the decoded record and never builds.
func TestTierDiskHitSkipsBuild(t *testing.T) {
	store := withStore(t, nil)
	tier := strTier()
	var builds atomic.Int32
	mustGet(t, tier, "k", nil, value("value", &builds))
	tier.Reset()
	if v := mustGet(t, tier, "k", nil, value("rebuilt", &builds)); v != "value" {
		t.Fatalf("Get after a memory reset = %q, want the stored %q", v, "value")
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds, want 1: the disk hit must skip the build", n)
	}
	if st := tier.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("tier stats %+v, want the reset counters to show one miss", st)
	}
	if ds := store.Stats(); ds.Hits != 1 || ds.VerifyFails != 0 {
		t.Fatalf("store stats %+v, want one disk hit and no verify failures", ds)
	}
}

// TestTierRejectedRecordDropped: a stored record that fails to decode, or
// that the caller's accept rejects, is dropped (a verify failure), and the
// value is rebuilt and published in its place.
func TestTierRejectedRecordDropped(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload string
		accept  func(string) bool
	}{
		{"decode", "garbage", nil},
		{"accept", "v=stale", func(v string) bool { return v != "stale" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := withStore(t, nil)
			if err := store.Put(artifact.KindCurve, "test|k", []byte(tc.payload)); err != nil {
				t.Fatal(err)
			}
			tier := strTier()
			var builds atomic.Int32
			if v := mustGet(t, tier, "k", tc.accept, value("fresh", &builds)); v != "fresh" {
				t.Fatalf("Get = %q, want the rebuilt %q", v, "fresh")
			}
			if n := builds.Load(); n != 1 {
				t.Fatalf("%d builds, want 1", n)
			}
			if vf := store.Stats().VerifyFails; vf != 1 {
				t.Fatalf("store verify_fails = %d, want 1 for the dropped record", vf)
			}
			if p, ok := stored(store, "k"); !ok || p != "v=fresh" {
				t.Fatalf("record after rebuild %q (found %v), want the re-published %q", p, ok, "v=fresh")
			}
		})
	}
}

// TestTierBuildErrorNotCached: a build error reaches the owner and every
// caller waiting on that build, is neither cached in memory nor published,
// and the next Get builds again.
func TestTierBuildErrorNotCached(t *testing.T) {
	store := withStore(t, nil)
	tier := strTier()
	boom := errors.New("transient build failure")
	release := make(chan struct{})
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = tier.Get("k", nil, func() (string, error) {
				<-release
				return "", boom
			})
		}()
	}
	for claims(tier) < 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d got err=%v, want the build's error", i, err)
		}
	}
	if st := tier.Stats(); st.Hits != 0 || st.Misses != 1 || st.ResidentBytes != 0 {
		t.Fatalf("tier stats %+v, want one miss and nothing resident", st)
	}
	if _, ok := stored(store, "k"); ok {
		t.Fatal("a failed build was published to the store")
	}
	var builds atomic.Int32
	if v := mustGet(t, tier, "k", nil, value("value", &builds)); v != "value" || builds.Load() != 1 {
		t.Fatalf("retry got %q after %d builds, want a fresh build of %q", v, builds.Load(), "value")
	}
}

// TestTierFailedPutKeepsValue: a store that cannot write costs the record,
// never the Get.
func TestTierFailedPutKeepsValue(t *testing.T) {
	ffs := faultfs.New(artifact.OSFS())
	store := withStore(t, ffs)
	ffs.Inject(faultfs.Fault{Op: faultfs.OpCreateTemp, Err: syscall.ENOSPC})
	tier := strTier()
	var builds atomic.Int32
	if v := mustGet(t, tier, "k", nil, value("value", &builds)); v != "value" {
		t.Fatalf("Get = %q, want %q", v, "value")
	}
	if ds := store.Stats(); ds.OpErrors == 0 {
		t.Fatalf("store stats %+v, want the failed write counted", ds)
	}
	if v := mustGet(t, tier, "k", nil, value("rebuilt", &builds)); v != "value" || builds.Load() != 1 {
		t.Fatalf("second Get = %q after %d builds, want the memory hit %q", v, builds.Load(), "value")
	}
}

// TestTierCountersAndEviction: under a bound, completed entries are evicted
// least recently used first, and the counters follow every Get. Release
// drops entries but keeps the counters; Reset zeroes them.
func TestTierCountersAndEviction(t *testing.T) {
	tier := memTier()
	tier.SetBound(10)
	var builds atomic.Int32
	mustGet(t, tier, "a", nil, value("aaaaa", &builds))
	mustGet(t, tier, "b", nil, value("bbbbb", &builds))
	mustGet(t, tier, "a", nil, value("aaaaa", &builds)) // a is now more recent than b
	mustGet(t, tier, "c", nil, value("ccccc", &builds)) // evicts b
	want := artifact.TierStats{Hits: 1, Misses: 3, Evictions: 1, ResidentBytes: 10}
	if st := tier.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	mustGet(t, tier, "a", nil, value("aaaaa", &builds))
	mustGet(t, tier, "b", nil, value("bbbbb", &builds)) // rebuilt, evicts c
	if n := builds.Load(); n != 4 {
		t.Fatalf("%d builds, want 4: only the evicted key rebuilds", n)
	}
	tier.Release()
	if st := tier.Stats(); st.Hits != 2 || st.Misses != 4 || st.ResidentBytes != 0 {
		t.Fatalf("stats after Release %+v, want counters kept and nothing resident", st)
	}
	tier.Reset()
	if st := tier.Stats(); st != (artifact.TierStats{}) {
		t.Fatalf("stats after Reset %+v, want zero", st)
	}
}

// TestTierShareWith: a sibling tier draws on the other tier's memory, so
// one bound covers both, while each keeps its own hit and miss counters.
func TestTierShareWith(t *testing.T) {
	owner := memTier()
	sibling := &Tier[int, string]{Name: "sibling", Size: func(v string) uint64 { return uint64(len(v)) }, ShareWith: owner}
	owner.SetBound(8)
	var builds atomic.Int32
	mustGet(t, owner, "a", nil, value("aaaa", &builds))
	if _, err := sibling.Get(1, nil, func() (string, error) { return "bbbb", nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := sibling.Get(2, nil, func() (string, error) { return "cccc", nil }); err != nil {
		t.Fatal(err)
	}
	st := owner.Stats()
	if st.Misses != 1 || st.Evictions != 1 || st.ResidentBytes != 8 {
		t.Fatalf("owner stats %+v, want its own single miss and the shared eviction and bytes", st)
	}
	if ss := sibling.Stats(); ss.Misses != 2 || ss.ResidentBytes != 8 {
		t.Fatalf("sibling stats %+v, want two misses over the shared bytes", ss)
	}
	mustGet(t, owner, "a", nil, value("aaaa", &builds))
	if n := builds.Load(); n != 2 {
		t.Fatalf("owner's entry survived the sibling's inserts (%d builds, want 2)", n)
	}
}

// TestTierNoDiskWithoutStoreOrKind: a memory-only tier never touches the
// configured store, and a persisted tier in a process with no store never
// touches disk.
func TestTierNoDiskWithoutStoreOrKind(t *testing.T) {
	ffs := faultfs.New(artifact.OSFS())
	store := withStore(t, ffs)
	var builds atomic.Int32
	ops := func() (n uint64) {
		for op := faultfs.OpMkdirAll; op <= faultfs.OpChtimes; op++ {
			n += ffs.Calls(op)
		}
		return n
	}
	before := ops()

	mem := memTier()
	mustGet(t, mem, "k", nil, value("value", &builds))
	mem.Save("k", "value")
	if _, ok := mem.Load("k", nil); ok {
		t.Fatal("a memory-only tier loaded from disk")
	}

	artifact.SetDefault(nil)
	tier := strTier()
	mustGet(t, tier, "k", nil, value("value", &builds))
	tier.Save("k", "value")
	if _, ok := tier.Load("k", nil); ok {
		t.Fatal("a tier with no store configured loaded from disk")
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds, want 2", n)
	}
	if after := ops(); after != before {
		t.Fatalf("%d filesystem operations, want none", after-before)
	}
	if ds := store.Stats(); ds.Hits+ds.Misses != 0 || ds.ResidentBytes != 0 {
		t.Fatalf("store stats %+v, want an untouched store", ds)
	}
}

// TestTierGetManyBuildsOnlyItsMisses: a batch Get builds, in one call, only
// the keys it claims that no one holds; it takes resident keys from memory
// and waits for keys another batch is building, finishing its own build
// first. A failed batch build caches none of its keys.
func TestTierGetManyBuildsOnlyItsMisses(t *testing.T) {
	tier := memTier()
	var builds atomic.Int32
	mustGet(t, tier, "a", nil, value("A", &builds))

	started, release := make(chan struct{}), make(chan struct{})
	var first, second []string
	var firstErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		first, firstErr = tier.GetMany([]string{"b", "c"}, nil, func(missing []int) ([]string, error) {
			close(started)
			<-release
			if len(missing) != 2 || missing[0] != 0 || missing[1] != 1 {
				return nil, fmt.Errorf("first batch asked to build %v, want [0 1]", missing)
			}
			return []string{"B", "C"}, nil
		})
	}()
	<-started
	built := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		second, err = tier.GetMany([]string{"c", "a", "d"}, nil, func(missing []int) ([]string, error) {
			defer close(built)
			if len(missing) != 1 || missing[0] != 2 {
				return nil, fmt.Errorf("second batch asked to build %v, want [2]", missing)
			}
			return []string{"D"}, nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-built // the second batch builds its own miss while "c" is in flight
	close(release)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if !reflect.DeepEqual(first, []string{"B", "C"}) || !reflect.DeepEqual(second, []string{"C", "A", "D"}) {
		t.Fatalf("batches got %q and %q, want [B C] and [C A D]", first, second)
	}
	if st := tier.Stats(); st.Hits != 2 || st.Misses != 4 {
		t.Fatalf("tier stats %+v, want 2 hits (a, c) and 4 misses (a, b, c, d)", st)
	}

	boom := errors.New("batch build failure")
	if _, err := tier.GetMany([]string{"e", "f"}, nil, func([]int) ([]string, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed batch returned err=%v, want the build's error", err)
	}
	got, err := tier.GetMany([]string{"e", "f"}, nil, func(missing []int) ([]string, error) {
		if len(missing) != 2 {
			return nil, fmt.Errorf("retry asked to build %v, want both keys", missing)
		}
		return []string{"E", "F"}, nil
	})
	if err != nil || !reflect.DeepEqual(got, []string{"E", "F"}) {
		t.Fatalf("retry after a failed batch got %q, err=%v", got, err)
	}
}
