// Degradation-path tests live in an external test package so they can
// drive the store through internal/faultfs (which itself imports artifact
// for the FS seam).
package artifact_test

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"branchconf/internal/artifact"
	"branchconf/internal/faultfs"
)

// openFaulty opens a store on dir over a fresh injector.
func openFaulty(t *testing.T, dir string, opts artifact.Options) (*artifact.Store, *faultfs.FS) {
	t.Helper()
	ffs := faultfs.New(artifact.OSFS())
	opts.FS = ffs
	s, err := artifact.OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, ffs
}

// TestStoreRetriesTransient: a one-shot EIO on the record read is absorbed
// by the retry loop — the Get still hits and no operation error is counted.
func TestStoreRetriesTransient(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFaulty(t, dir, artifact.Options{})
	if err := s.Put(artifact.KindReplayBuffer, "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(faultfs.Fault{Op: faultfs.OpReadFile, Nth: 1, Err: syscall.EIO})
	got, ok := s.Get(artifact.KindReplayBuffer, "k")
	if !ok || string(got) != "payload" {
		t.Fatalf("Get under transient EIO = (%q, %v), want retried hit", got, ok)
	}
	st := s.Stats()
	if st.OpErrors != 0 || st.Degraded {
		t.Fatalf("transient retried fault still counted: %+v", st)
	}
	if calls := ffs.Calls(faultfs.OpReadFile); calls != 2 {
		t.Fatalf("ReadFile called %d times, want 2 (fault + retry)", calls)
	}
}

// TestStorePermanentFaultNotRetried: EACCES is classified permanent — one
// attempt, one counted operation error, and the Get degrades to a miss.
func TestStorePermanentFaultNotRetried(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFaulty(t, dir, artifact.Options{})
	if err := s.Put(artifact.KindReplayBuffer, "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	base := ffs.Calls(faultfs.OpReadFile)
	ffs.Inject(faultfs.Fault{Op: faultfs.OpReadFile, Nth: 1, Err: syscall.EACCES})
	if _, ok := s.Get(artifact.KindReplayBuffer, "k"); ok {
		t.Fatal("Get hit through a permission error")
	}
	if calls := ffs.Calls(faultfs.OpReadFile) - base; calls != 1 {
		t.Fatalf("permanent fault retried: %d read calls, want 1", calls)
	}
	st := s.Stats()
	if st.OpErrors != 1 || st.Misses != 1 || st.Degraded {
		t.Fatalf("stats after one permanent fault = %+v, want 1 op error, 1 miss, not degraded", st)
	}
}

// TestStoreBreakerTripsOnReads: persistent read faults trip the breaker;
// the store then answers misses without touching the disk at all.
func TestStoreBreakerTripsOnReads(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFaulty(t, dir, artifact.Options{})
	if err := s.Put(artifact.KindReplayBuffer, "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(faultfs.Fault{Op: faultfs.OpReadFile, Err: syscall.EACCES})
	for i := 0; i < 3; i++ {
		if _, ok := s.Get(artifact.KindReplayBuffer, "k"); ok {
			t.Fatalf("Get %d hit through the fault", i)
		}
	}
	st := s.Stats()
	if !st.Degraded || st.OpErrors != 3 {
		t.Fatalf("breaker did not trip after 3 failures: %+v", st)
	}
	reads := ffs.Calls(faultfs.OpReadFile)
	if _, ok := s.Get(artifact.KindReplayBuffer, "k"); ok {
		t.Fatal("degraded Get hit")
	}
	if err := s.Put(artifact.KindReplayBuffer, "k2", []byte("x")); err == nil {
		t.Fatal("degraded Put reported success")
	}
	if got := ffs.Calls(faultfs.OpReadFile); got != reads {
		t.Fatalf("degraded store still touched the disk (%d -> %d reads)", reads, got)
	}
	if st := s.Stats(); st.Misses != 4 {
		t.Fatalf("degraded Get not counted as a miss: %+v", st)
	}
}

// TestStoreBreakerTripsOnWrites: a disk that fails every write (but happily
// unlinks the empty pack) must still degrade — successful cleanup does not
// reset the breaker — and must leave no pack behind.
func TestStoreBreakerTripsOnWrites(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFaulty(t, dir, artifact.Options{})
	ffs.Inject(faultfs.Fault{Op: faultfs.OpWrite, Err: syscall.ENOSPC})
	for i := 0; i < 3; i++ {
		if err := s.Put(artifact.KindReplayBuffer, "k", []byte("payload")); err == nil {
			t.Fatalf("Put %d succeeded with a full disk", i)
		}
	}
	st := s.Stats()
	if !st.Degraded {
		t.Fatalf("write-only faults never tripped the breaker: %+v", st)
	}
	packs, err := filepath.Glob(filepath.Join(dir, "*.pack"))
	if err != nil || len(packs) != 0 {
		t.Fatalf("failed Puts leaked packs: %v (err=%v)", packs, err)
	}
}

// TestStoreStrictPinsFirstFailure: under Options.Strict the first
// classified failure becomes the sticky Err, the disk is not touched again,
// and the error names the failure class.
func TestStoreStrictPinsFirstFailure(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFaulty(t, dir, artifact.Options{Strict: true})
	ffs.Inject(faultfs.Fault{Op: faultfs.OpCreateTemp, Err: syscall.ENOSPC})
	if err := s.Put(artifact.KindReplayBuffer, "k", []byte("payload")); err == nil {
		t.Fatal("strict Put succeeded with a full disk")
	}
	err := s.Err()
	if err == nil {
		t.Fatal("strict store recorded no sticky error")
	}
	if !strings.Contains(err.Error(), "permanent") {
		t.Fatalf("sticky error %q does not name the failure class", err)
	}
	reads := ffs.Calls(faultfs.OpReadFile)
	if _, ok := s.Get(artifact.KindReplayBuffer, "k"); ok {
		t.Fatal("Get hit after a strict failure")
	}
	if got := ffs.Calls(faultfs.OpReadFile); got != reads {
		t.Fatal("strict-failed store still touched the disk")
	}
	if st := s.Stats(); !st.Degraded {
		t.Fatalf("strict failure not visible as Degraded: %+v", st)
	}
}

// TestStoreStrictOpenFails: a strict store surfaces an unusable directory
// as a hard open error; a fail-soft store opens pre-degraded instead and
// the run proceeds on the in-memory tiers.
func TestStoreOpenFailurePolicy(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")

	ffs := faultfs.New(artifact.OSFS())
	ffs.Inject(faultfs.Fault{Op: faultfs.OpMkdirAll, Err: syscall.EACCES})
	if _, err := artifact.OpenStore(dir, artifact.Options{Strict: true, FS: ffs}); err == nil {
		t.Fatal("strict open of an uncreatable directory succeeded")
	}

	ffs = faultfs.New(artifact.OSFS())
	ffs.Inject(faultfs.Fault{Op: faultfs.OpMkdirAll, Err: syscall.EACCES})
	s, err := artifact.OpenStore(dir, artifact.Options{FS: ffs})
	if err != nil {
		t.Fatalf("fail-soft open returned a hard error: %v", err)
	}
	if st := s.Stats(); !st.Degraded || st.OpErrors == 0 {
		t.Fatalf("fail-soft open not pre-degraded: %+v", st)
	}
	if _, ok := s.Get(artifact.KindReplayBuffer, "k"); ok {
		t.Fatal("degraded-from-birth store served a hit")
	}
}

// TestStoreOrphanSweep: Open deletes the record files and staged writes of
// the one-file-per-record layout — a directory that layout filled starts
// cold once — and counts none of them against the resident budget, while
// the packs it holds keep serving.
func TestStoreOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	s, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(artifact.KindReplayBuffer, "real", []byte("record")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	wantResident := s.Stats().ResidentBytes

	legacy := []string{".tmp-dead", ".tmp-live", artifact.Address(artifact.KindReplayBuffer, "old") + ".art"}
	for _, name := range legacy {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("one-file-per-record bytes"), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range legacy {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("legacy file %s survived Open (err=%v)", name, err)
		}
	}
	if got := s2.Stats().ResidentBytes; got != wantResident {
		t.Errorf("resident bytes = %d, want %d (legacy files must not count against the budget)", got, wantResident)
	}
	if got, ok := s2.Get(artifact.KindReplayBuffer, "real"); !ok || string(got) != "record" {
		t.Errorf("real record lost in the sweep: ok=%v %q", ok, got)
	}
}

// TestStoreCrashRecoveryEndToEnd: a writer that "crashes" inside an append
// leaves its pack with a torn tail it cannot clean up; once the outage
// clears, the next Open counts the whole pack, serves every record before
// the tail without a verify failure, and the torn key is fully reusable.
func TestStoreCrashRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFaulty(t, dir, artifact.Options{})
	if err := s.Put(artifact.KindReplayBuffer, "before", []byte("landed whole")); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(faultfs.Fault{Op: faultfs.OpWrite, Nth: 1, Err: syscall.EIO, Mode: faultfs.CrashMidAppend})
	if err := s.Put(artifact.KindReplayBuffer, "k", []byte("payload")); err == nil {
		t.Fatal("crashed Put reported success")
	}
	if _, ok := s.Get(artifact.KindReplayBuffer, "k"); ok {
		t.Fatal("torn record served")
	}

	ffs.Clear() // the outage ends; a new process opens the directory
	s2, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	packs, err := filepath.Glob(filepath.Join(dir, "*.pack"))
	if err != nil || len(packs) != 1 {
		t.Fatalf("crash left packs %v (err %v), want the one torn pack", packs, err)
	}
	info, err := os.Stat(packs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().ResidentBytes; got != uint64(info.Size()) {
		t.Fatalf("resident = %d, want the torn pack's %d bytes", got, info.Size())
	}
	if got, ok := s2.Get(artifact.KindReplayBuffer, "before"); !ok || string(got) != "landed whole" {
		t.Fatalf("record before the torn tail lost: ok=%v %q", ok, got)
	}
	if _, ok := s2.Get(artifact.KindReplayBuffer, "k"); ok {
		t.Fatal("torn record served after recovery")
	}
	if err := s2.Put(artifact.KindReplayBuffer, "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(artifact.KindReplayBuffer, "k"); !ok || string(got) != "payload" {
		t.Fatalf("slot unusable after recovery: ok=%v %q", ok, got)
	}
	if st := s2.Stats(); st.VerifyFails != 0 || st.OpErrors != 0 {
		t.Fatalf("recovered store stats = %+v, want no verify fails or op errors", st)
	}
}

// TestStoreWithoutPositionedReads: on an FS without the ReadAtFS extension
// the store reads a whole pack with ReadFile — once to walk it at Open —
// and serves records from that buffer until a read needs another pack.
func TestStoreWithoutPositionedReads(t *testing.T) {
	dir := t.TempDir()
	filler, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := filler.Put(artifact.KindCurve, k, []byte("payload "+k)); err != nil {
			t.Fatal(err)
		}
	}
	filler.Close()

	ffs := faultfs.New(artifact.OSFS())
	plain := struct{ artifact.FS }{ffs} // hides OpenReadAt
	s, err := artifact.OpenStore(dir, artifact.Options{FS: plain})
	if err != nil {
		t.Fatal(err)
	}
	get := func(k string) {
		t.Helper()
		if got, ok := s.Get(artifact.KindCurve, k); !ok || string(got) != "payload "+k {
			t.Fatalf("Get %s: ok=%v %q", k, ok, got)
		}
	}
	get("a")
	get("c")
	get("b")
	if n := ffs.Calls(faultfs.OpReadFile); n != 1 {
		t.Fatalf("%d whole-pack reads for three records in one pack, want 1", n)
	}
	if err := s.Put(artifact.KindCurve, "d", []byte("payload d")); err != nil {
		t.Fatal(err)
	}
	get("d") // in this store's own pack
	get("a") // back in the first one
	if n := ffs.Calls(faultfs.OpReadFile); n != 3 {
		t.Fatalf("%d whole-pack reads, want 3: one more per change of pack", n)
	}
}
