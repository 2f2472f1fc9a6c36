package artifact

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// flipRecordByte flips mask into byte i of the record s holds for (kind,
// key), in place in its pack (a negative i counts from the record's end):
// the one way these tests corrupt a record on disk.
func flipRecordByte(t *testing.T, s *Store, kind uint16, key string, i int64, mask byte) {
	t.Helper()
	s.mu.Lock()
	l := s.index[Address(kind, key)]
	s.mu.Unlock()
	if l == nil {
		t.Fatalf("store holds no record for %q", key)
	}
	if i < 0 {
		i += l.n
	}
	f, err := os.OpenFile(s.packPath(l.pack.name), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, l.off+i); err != nil {
		t.Fatal(err)
	}
	b[0] ^= mask
	if _, err := f.WriteAt(b, l.off+i); err != nil {
		t.Fatal(err)
	}
}

// packFiles lists the store directory, failing the test on any file that
// is not a pack.
func packFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var packs []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) != packExt {
			t.Errorf("store directory holds a non-pack file %s", e.Name())
			continue
		}
		packs = append(packs, filepath.Join(dir, e.Name()))
	}
	return packs
}

func TestStoreGetPut(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindReplayBuffer, "k1"); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.Put(KindReplayBuffer, "k1", []byte("payload-1")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(KindReplayBuffer, "k1")
	if !ok || !bytes.Equal(got, []byte("payload-1")) {
		t.Fatalf("Get after Put: ok=%v payload=%q", ok, got)
	}
	// Same key under a different kind is a distinct entry.
	if _, ok := s.Get(KindAnnotatedStream, "k1"); ok {
		t.Fatal("kind does not separate the address space")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.VerifyFails != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
	if st.ResidentBytes == 0 {
		t.Fatal("resident bytes not tracked")
	}
}

// TestStoreCorruptRecordDeleted: a record that fails verification is
// never served again and is counted, and the slot is reusable.
func TestStoreCorruptRecordDeleted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindBucketStream, "key", []byte("good payload")); err != nil {
		t.Fatal(err)
	}
	rec := int64(len(EncodeRecord(KindBucketStream, "key", []byte("good payload"))))
	flipRecordByte(t, s, KindBucketStream, "key", rec/2, 0x40)
	if _, ok := s.Get(KindBucketStream, "key"); ok {
		t.Fatal("corrupt record served")
	}
	st := s.Stats()
	if st.VerifyFails != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 verify fail counted as a miss", st)
	}
	if _, ok := s.Get(KindBucketStream, "key"); ok {
		t.Fatal("corrupt record served again")
	}
	// Regeneration path: Put again, Get serves the fresh bytes.
	if err := s.Put(KindBucketStream, "key", []byte("regenerated")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(KindBucketStream, "key"); !ok || string(got) != "regenerated" {
		t.Fatalf("regenerated record not served: ok=%v %q", ok, got)
	}
}

// TestStoreEvictsLRU: with a budget that holds two records, touching the
// older one flips the eviction order — the untouched record goes first.
func TestStoreEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte{1}, 1000)
	rec := uint64(len(EncodeRecord(KindReplayBuffer, "a", payload)))
	s, err := Open(dir, 2*rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindReplayBuffer, "a", payload); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // order lastUse stamps
	if err := s.Put(KindReplayBuffer, "b", payload); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	if _, ok := s.Get(KindReplayBuffer, "a"); !ok { // refresh a's recency
		t.Fatal("record a missing before eviction")
	}
	time.Sleep(2 * time.Millisecond)
	if err := s.Put(KindReplayBuffer, "c", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindReplayBuffer, "b"); ok {
		t.Fatal("least-recently-used record b survived eviction")
	}
	if _, ok := s.Get(KindReplayBuffer, "a"); !ok {
		t.Fatal("recently-used record a evicted")
	}
	if _, ok := s.Get(KindReplayBuffer, "c"); !ok {
		t.Fatal("newest record c evicted")
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.ResidentBytes > 2*rec {
		t.Fatalf("resident %d exceeds budget %d", st.ResidentBytes, 2*rec)
	}
}

// TestStoreReopenIndex: a fresh Open over an existing directory serves the
// old records and enforces the budget immediately.
func TestStoreReopenIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindAnnotatedStream, "persisted", []byte("across processes")); err != nil {
		t.Fatal(err)
	}
	want := s.Stats().ResidentBytes

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(KindAnnotatedStream, "persisted"); !ok || string(got) != "across processes" {
		t.Fatalf("reopened store lost the record: ok=%v %q", ok, got)
	}
	if got := s2.Stats().ResidentBytes; got != want {
		t.Fatalf("rescanned resident bytes = %d, want %d", got, want)
	}

	// Reopen with a budget of one byte: everything evicts at Open.
	s3, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.ResidentBytes != 0 || st.Evictions == 0 {
		t.Fatalf("over-budget reopen kept records: %+v", st)
	}
	if _, ok := s3.Get(KindAnnotatedStream, "persisted"); ok {
		t.Fatal("evicted record still served")
	}
}

func TestStoreDrop(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindReplayBuffer, "k", []byte("p")); err != nil {
		t.Fatal(err)
	}
	s.Drop(KindReplayBuffer, "k")
	if _, ok := s.Get(KindReplayBuffer, "k"); ok {
		t.Fatal("dropped record still served")
	}
	if st := s.Stats(); st.VerifyFails != 1 {
		t.Fatalf("Drop did not count a verify failure: %+v", st)
	}
}

// TestStoreCrossProcessContention models two processes sharing one artifact
// directory: two independent Store instances (separate indexes, one disk)
// doing concurrent Puts and Gets over the same key set. Every record must
// survive, every Get must serve the correct bytes or a benign miss, each
// store must find records the other appended after it opened, and
// afterwards each instance's resident accounting — and a fresh walk's —
// must equal the actual bytes on disk, counted once.
// Run under -race in CI's engine shard.
func TestStoreCrossProcessContention(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}

	const keys = 16
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i)}, 64+i)
	}
	key := func(i int) string { return fmt.Sprintf("contended-%d", i) }

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		s := a
		if g%2 == 1 {
			s = b
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i := 0; i < keys; i++ {
					k := (i*7 + g*3 + round) % keys // jitter the order per goroutine
					if err := s.Put(KindReplayBuffer, key(k), payload(k)); err != nil {
						t.Errorf("Put %d: %v", k, err)
					}
					if got, ok := s.Get(KindReplayBuffer, key(k)); ok && !bytes.Equal(got, payload(k)) {
						t.Errorf("Get %d served wrong bytes", k)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Records appended after the other store opened are visible through
	// it: a local miss walks what the other store has appended since.
	if err := a.Put(KindCurve, "late-a", []byte("from a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(KindCurve, "late-b", []byte("from b")); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Get(KindCurve, "late-b"); !ok || string(got) != "from b" {
		t.Fatalf("store a missed b's late record: ok=%v %q", ok, got)
	}
	if got, ok := b.Get(KindCurve, "late-a"); !ok || string(got) != "from a" {
		t.Fatalf("store b missed a's late record: ok=%v %q", ok, got)
	}

	// No lost records: both instances serve every key.
	for i := 0; i < keys; i++ {
		for name, s := range map[string]*Store{"a": a, "b": b} {
			got, ok := s.Get(KindReplayBuffer, key(i))
			if !ok || !bytes.Equal(got, payload(i)) {
				t.Fatalf("store %s lost key %d: ok=%v", name, i, ok)
			}
		}
	}

	// No double-counted resident bytes: each instance counts every pack
	// once, agreeing with the bytes actually on disk, and so does a fresh
	// walk. Each store appended to one pack of its own.
	var onDisk uint64
	files := packFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("%d packs on disk, want one per store", len(files))
	}
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += uint64(info.Size())
	}
	for name, s := range map[string]*Store{"a": a, "b": b} {
		if got := s.Stats().ResidentBytes; got != onDisk {
			t.Errorf("store %s resident = %d, want %d (on disk)", name, got, onDisk)
		}
	}
	fresh, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.Stats().ResidentBytes; got != onDisk {
		t.Errorf("fresh scan resident = %d, want %d", got, onDisk)
	}
}

// TestStoreContentionWithGC adds cross-process GC to the mix: one writer
// keeps publishing while a second instance under a tiny budget keeps
// evicting the writer's pack. Append/unlink races must stay benign — Gets
// serve correct bytes or miss, nothing errors, nothing but packs remain.
func TestStoreContentionWithGC(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 256)
	rec := uint64(len(EncodeRecord(KindBucketStream, "gc-0", payload)))
	collector, err := Open(dir, 2*rec)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for round := 0; round < 8; round++ {
			for i := 0; i < 8; i++ {
				k := fmt.Sprintf("gc-%d", i)
				if err := writer.Put(KindBucketStream, k, payload); err != nil {
					t.Errorf("writer Put: %v", err)
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for round := 0; round < 8; round++ {
			for i := 0; i < 8; i++ {
				k := fmt.Sprintf("gc-%d", i)
				// The collector adopts records it sees (over budget, evicts)
				// and misses ones GC'd out from under it; both are benign.
				if got, ok := collector.Get(KindBucketStream, k); ok && !bytes.Equal(got, payload) {
					t.Errorf("collector served wrong bytes for %s", k)
				}
			}
		}
	}()
	wg.Wait()

	packFiles(t, dir) // nothing but packs

	// Both instances remain healthy: no degraded flags, no op errors from
	// the benign races (losing a file to the other process's GC is a clean
	// miss, not a fault).
	for name, s := range map[string]*Store{"writer": writer, "collector": collector} {
		if st := s.Stats(); st.Degraded || st.OpErrors != 0 {
			t.Errorf("store %s unhealthy after benign races: %+v", name, st)
		}
	}
}

// TestDefaultStore: the package default is a nil-safe indirection — Get
// misses, Put discards, and Report is zero until a store is installed.
func TestDefaultStore(t *testing.T) {
	if Default() != nil {
		t.Fatal("default store unexpectedly set")
	}
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	SetDefault(s)
	defer SetDefault(nil)
	if Default() != s {
		t.Fatal("SetDefault did not install the store")
	}
	if err := Default().Put(KindReplayBuffer, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := Report(); got.Misses != 0 || got.ResidentBytes == 0 {
		t.Fatalf("Report = %+v", got)
	}
}

// TestStoreVerifyFirstReadThenCheap pins the verification-cost contract:
// the first read of a record in a process pays the full checksum sweep and
// marks the entry; repeat reads skip the CRC (a payload bit flipped after
// that first read is deliberately not seen — the documented tradeoff); and
// the first fault of any kind restores full verification for every
// subsequent read, which then catches the flip and deletes the record.
func TestStoreVerifyFirstReadThenCheap(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const key = "cheap"
	if err := s.Put(KindReplayBuffer, key, []byte("payload under test")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindReplayBuffer, key); !ok {
		t.Fatal("first read missed")
	}
	// Flip one payload bit on disk, past the header and embedded key so only
	// the checksum could catch it.
	flipRecordByte(t, s, KindReplayBuffer, key, recordHeaderLen+int64(len(key))+3, 0x01)
	// Repeat read: the record was verified this process, so the CRC is
	// skipped and the flip is not seen.
	if _, ok := s.Get(KindReplayBuffer, key); !ok {
		t.Fatal("repeat read of a verified record should serve on the cheap path")
	}
	if st := s.Stats(); st.VerifyFails != 0 {
		t.Fatalf("cheap path counted a verify fail: %+v", st)
	}
	// First fault: a fresh record corrupted before its first read. That read
	// full-verifies (first read per process), fails, and trips the store into
	// verify-everything mode.
	if err := s.Put(KindReplayBuffer, "other", []byte("other payload")); err != nil {
		t.Fatal(err)
	}
	flipRecordByte(t, s, KindReplayBuffer, "other", -1, 0x80)
	if _, ok := s.Get(KindReplayBuffer, "other"); ok {
		t.Fatal("corrupt first read served")
	}
	// With a fault on the books, the previously verified record is swept in
	// full again — the flipped bit is caught now, fail-closed.
	if _, ok := s.Get(KindReplayBuffer, key); ok {
		t.Fatal("post-fault read skipped the checksum")
	}
	if _, ok := s.Get(KindReplayBuffer, key); ok {
		t.Fatal("corrupt record served again after post-fault verify")
	}
	if st := s.Stats(); st.VerifyFails != 2 {
		t.Fatalf("stats = %+v, want 2 verify fails", st)
	}
}

// TestStoreStrictAlwaysVerifies: a strict store never takes the cheap path,
// so a bit flip after a verified read is still caught on the next read.
func TestStoreStrictAlwaysVerifies(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	const key = "strict"
	if err := s.Put(KindReplayBuffer, key, []byte("strict payload")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindReplayBuffer, key); !ok {
		t.Fatal("first read missed")
	}
	flipRecordByte(t, s, KindReplayBuffer, key, recordHeaderLen+int64(len(key))+1, 0x10)
	if _, ok := s.Get(KindReplayBuffer, key); ok {
		t.Fatal("strict store served a corrupt record on a repeat read")
	}
	if st := s.Stats(); st.VerifyFails != 1 {
		t.Fatalf("stats = %+v, want 1 verify fail", st)
	}
	// Corruption is regenerable, not an I/O fault: the strict store stays
	// usable and Err stays nil.
	if err := s.Err(); err != nil {
		t.Fatalf("verify failure pinned as a strict I/O error: %v", err)
	}
}
