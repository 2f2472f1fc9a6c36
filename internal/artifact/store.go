package artifact

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime/pprof"
	"sync"
	"time"
)

// Store is a content-addressed artifact directory of append-only packs
// (see pack.go): an in-memory index maps the SHA-256 address of each
// (kind, key) to the pack, offset and length of its record, and an
// access-time-tracked pack list drives LRU garbage collection against a
// disk budget.
//
// A Store is safe for concurrent use by any number of goroutines, and the
// directory is safe to share between processes: each Store appends only to
// its own pack, a local miss walks what other processes have appended since,
// loads verify the record checksum (in full on the first read per process,
// framing-and-key-only after — see load), and a reader that loses a race
// with GC simply sees a miss.
//
// A Store is also fail-soft (see health.go): filesystem faults are
// classified and retried, and repeated failures trip a breaker that turns
// the store into an in-memory-only no-op for the rest of the process —
// degradation is observable in Stats, never fatal to the run. Opening with
// Options.Strict inverts that: the first failed operation is recorded as a
// sticky error (Err) for the caller to fail hard on.
type Store struct {
	dir    string
	budget uint64 // resident-bytes bound; 0 = unbounded
	fs     FS
	strict bool
	// remote, when non-nil, layers a shared network store under the local
	// disk tier: Gets read through it on a local miss (populating the local
	// tier), Puts publish to it write-behind. Always fail-soft — remote
	// outages degrade this store to local-only, never fail a run — so the
	// strict flag governs the local disk alone.
	remote *Remote

	// wmu serializes appends to this store's pack; scanMu serializes
	// directory rescans. Either may be held while taking mu, never the
	// reverse.
	wmu    sync.Mutex
	scanMu sync.Mutex

	mu       sync.Mutex
	index    map[string]*loc  // content address -> newest known copy
	packs    map[string]*pack // pack file name -> pack
	w        *packWriter      // this store's pack, nil before the first Put
	buf      *packBuf         // the last pack read whole, on an FS without ReadAtFS
	resident uint64

	hits, misses, verifyFails, evictions uint64

	// Health-breaker state (see health.go).
	opErrors    uint64
	consecFails int
	degraded    bool
	fatal       error // strict mode only: first classified failure
}

// bump increments one counter under the store mutex.
func (s *Store) bump(c *uint64) { s.mu.Lock(); *c++; s.mu.Unlock() }

// Options configures OpenStore beyond the directory path.
type Options struct {
	// Budget bounds the directory's resident bytes; 0 = unbounded.
	Budget uint64
	// Strict makes any classified filesystem failure sticky (see Err)
	// instead of degrading the store, so callers can fail hard.
	Strict bool
	// FS is the filesystem the store runs on; nil selects OSFS().
	FS FS
	// Remote layers a shared remote store under the local disk tier
	// (read-through on miss, write-behind on Put); nil disables it. The
	// store owns the Remote from here on: Close releases its worker.
	Remote *Remote
}

// Open opens (creating if necessary) the artifact directory on the real
// filesystem with default options. See OpenStore.
func Open(dir string, budgetBytes uint64) (*Store, error) {
	return OpenStore(dir, Options{Budget: budgetBytes})
}

// OpenStore opens (creating if necessary) the artifact directory and builds
// the index by walking the record headers of every pack already present,
// seeding each pack's last use from the file's modification time — Get
// refreshes it on every hit, both in memory and on disk, so recency
// survives process restarts. A nonzero budget bounds the directory's
// resident bytes; opening an over-budget directory evicts immediately.
//
// Open also recovers from crashed writers: a walk stops at a pack's torn
// tail and serves every record before it. It deletes the record files and
// staged writes of the one-file-per-record layout, so a directory that
// layout filled starts cold once.
//
// A directory that cannot be created or listed is not fatal unless
// Options.Strict is set: the store opens already degraded (disk untouched,
// every Get a miss) so the run proceeds on the in-memory tiers alone.
func OpenStore(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS()
	}
	s := &Store{
		dir: dir, budget: opts.Budget, fs: fsys, strict: opts.Strict, remote: opts.Remote,
		index: make(map[string]*loc), packs: make(map[string]*pack),
	}
	if err := s.do("mkdir", func() error { return fsys.MkdirAll(dir, 0o777) }); err != nil {
		return s.openFailed()
	}
	if err := s.rescan(true); err != nil {
		return s.openFailed()
	}
	return s, nil
}

// openFailed resolves a failed open (the failed do call already recorded
// the error): strict stores surface the sticky classified error; fail-soft
// stores open pre-degraded with a nil error so the engine runs on its
// in-memory tiers.
func (s *Store) openFailed() (*Store, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fatal != nil {
		return nil, s.fatal
	}
	s.degraded = true
	return s, nil
}

// diskOff reports whether the store may no longer touch the filesystem
// (breaker tripped, or a strict-mode failure recorded).
func (s *Store) diskOff() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded || s.fatal != nil
}

// do runs one idempotent filesystem operation under the store's failure
// policy: transient faults are retried up to retryAttempts times, a miss
// (fs.ErrNotExist) passes through without counting, and anything still
// failing is recorded against the breaker. Returns ErrDegraded without
// touching the disk once the store is off.
func (s *Store) do(op string, fn func() error) error {
	return s.run(op, retryAttempts, fn)
}

// doOnce is do without retry, for non-idempotent operations (writes on a
// file descriptor whose offset a failed attempt may have advanced).
func (s *Store) doOnce(op string, fn func() error) error {
	return s.run(op, 1, fn)
}

func (s *Store) run(op string, attempts int, fn func() error) error {
	if s.diskOff() {
		return ErrDegraded
	}
	var err error
	for try := 1; ; try++ {
		err = fn()
		if err == nil || errors.Is(err, fs.ErrNotExist) {
			return err
		}
		if try >= attempts || classify(err) != classTransient {
			break
		}
	}
	s.noteFailure(op, err)
	return err
}

// noteSuccess resets the breaker's consecutive-failure count. Called when
// a logical operation completes against the disk — a Get whose read
// returned record bytes, a Put whose record landed — not on every
// successful fs op, and not on a clean ErrNotExist miss: a Put whose
// CreateTemp works but whose Write keeps failing is a failing disk, and
// per-op (or per-miss) resets would let it evade the breaker forever.
func (s *Store) noteSuccess() {
	s.mu.Lock()
	s.consecFails = 0
	s.mu.Unlock()
}

// noteFailure records one failed operation (post retry): it always counts
// in OpErrors; a strict store pins it as the sticky fatal error, a
// fail-soft store trips into degraded mode after breakerTrip consecutive
// failures.
func (s *Store) noteFailure(op string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opErrors++
	s.consecFails++
	if s.strict {
		if s.fatal == nil {
			s.fatal = classifiedError(op, err)
		}
		return
	}
	if s.consecFails >= breakerTrip {
		s.degraded = true
	}
}

// Err returns the sticky classified failure of a store opened with
// Options.Strict, or nil. Fail-soft stores always return nil; their health
// is visible in Stats (Degraded, OpErrors) instead.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fatal
}

// Address derives the content address for (kind, key): the lowercase hex
// SHA-256 of the kind (little-endian) followed by the key bytes. It keys
// the store's index and the remote object protocol's URL path.
func Address(kind uint16, key string) string {
	h := sha256.New()
	var k [2]byte
	binary.LittleEndian.PutUint16(k[:], kind)
	h.Write(k[:])
	h.Write([]byte(key))
	return hex.EncodeToString(h.Sum(nil))
}

// addressLen is the length of a hex content address.
const addressLen = sha256.Size * 2

// validAddress reports whether addr is a well-formed content address (the
// remote server must never act on addresses it did not derive itself).
func validAddress(addr string) bool {
	if len(addr) != addressLen {
		return false
	}
	for i := 0; i < len(addr); i++ {
		c := addr[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get returns the payload stored for (kind, key), or ok == false on a miss.
// A record that fails verification is never served again by this store and
// is reported as a miss (after bumping the verify-fail counter); the caller
// regenerates and re-Puts, and the rebuilt copy shadows the corrupt one. A
// read that fails outright (media fault, degraded store) is also a miss:
// the caller regenerates, and the failure is accounted in OpErrors.
func (s *Store) Get(kind uint16, key string) (payload []byte, ok bool) {
	pprof.Do(context.Background(), pprof.Labels("stage", "artifact-load"), func(context.Context) {
		payload, ok = s.get(kind, key)
	})
	return payload, ok
}

// get serves (kind, key) from the local disk tier, falling back to the
// remote tier on a local miss (or a degraded local disk). A remote hit
// populates the local tier with the verified record — read-through — so
// the next process run on this machine hits disk without the network.
func (s *Store) get(kind uint16, key string) ([]byte, bool) {
	addr := Address(kind, key)
	payload, ok := s.load(addr, func(data []byte, checksum bool) ([]byte, error) {
		return decodeRecord(data, kind, key, checksum)
	})
	if ok || s.remote == nil {
		return payload, ok
	}
	payload, record, ok := s.remote.Get(kind, key)
	if !ok {
		return nil, false
	}
	_ = s.publish(addr, record)
	return payload, true
}

// load reads the record at addr and returns what verify makes of it. The
// index is consulted first; a miss rescans the directory once, so records
// another process appended since are found. verify gets the record bytes
// and whether this read owes a checksum sweep: it does on the first read of
// each copy per process, and unconditionally on a strict store or once the
// store has seen any fault — a disk that has produced one bad byte or one
// failed op has forfeited the benefit of the doubt for the rest of the
// process. Repeat reads of a copy this process already verified skip only
// the CRC; framing and key checks always run.
func (s *Store) load(addr string, verify func(data []byte, checksum bool) ([]byte, error)) ([]byte, bool) {
	l := s.lookup(addr)
	if l == nil {
		s.bump(&s.misses)
		return nil, false
	}
	s.mu.Lock()
	checksum := s.strict || s.opErrors > 0 || s.verifyFails > 0 || !l.verified
	s.mu.Unlock()
	data, err := s.readRecord(l)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// Another process evicted the pack.
			s.mu.Lock()
			if !l.pack.gone {
				s.dropPackLocked(l.pack)
			}
			s.mu.Unlock()
		}
		// A clean ErrNotExist miss is neutral for the breaker: it proves
		// the read path answers, but resetting on it would let a disk that
		// fails every write evade the trip forever (real workloads
		// interleave a miss before each Put).
		s.bump(&s.misses)
		return nil, false
	}
	s.noteSuccess()
	out, err := verify(data, checksum)
	if err != nil {
		s.mu.Lock()
		s.verifyFails++
		s.misses++
		s.mu.Unlock()
		s.forget(addr, l)
		return nil, false
	}
	s.touch(l, checksum)
	return out, true
}

// lookup returns addr's index entry, rescanning the directory once when it
// has none.
func (s *Store) lookup(addr string) *loc {
	s.mu.Lock()
	l := s.index[addr]
	s.mu.Unlock()
	if l != nil || s.rescan(false) != nil {
		return l
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index[addr]
}

// Put appends payload for (kind, key) to this store's pack, then applies
// the disk budget. A key the index already holds is not written again.
// Races between processes are benign: both writers append identical bytes
// (payloads are pure functions of the key), and either copy serves.
//
// Put is best effort by contract — its callers ignore the error and carry
// on — but the error is still meaningful: ErrDegraded for a tripped store,
// otherwise the create or append failure, accounted in OpErrors.
func (s *Store) Put(kind uint16, key string, payload []byte) (err error) {
	pprof.Do(context.Background(), pprof.Labels("stage", "artifact-store"), func(context.Context) {
		err = s.put(kind, key, payload)
	})
	return err
}

func (s *Store) put(kind uint16, key string, payload []byte) error {
	record := EncodeRecord(kind, key, payload)
	// Write-behind to the remote tier first: the fleet-shared store gets
	// the record even when the local disk is failing, and the bounded
	// asynchronous queue keeps the hot path off the network.
	if s.remote != nil {
		s.remote.PutAsync(record)
	}
	return s.publish(Address(kind, key), record)
}

// publish appends record under addr unless the index already holds addr
// (shared by local Puts, remote read-through adoption, and the remote
// object server's PutRecord).
func (s *Store) publish(addr string, record []byte) error {
	if s.diskOff() {
		return ErrDegraded
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	_, have := s.index[addr]
	s.mu.Unlock()
	if have {
		return nil
	}
	return s.append(addr, record)
}

// Drop stops serving the record for (kind, key), counting it as a verify
// failure. Callers use it when a payload that passed record verification
// still fails its type-level decode — possible only under a codec bug or
// an astronomically unlikely checksum collision, but fail-closed is cheap.
func (s *Store) Drop(kind uint16, key string) {
	s.bump(&s.verifyFails)
	s.forget(Address(kind, key), nil)
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Remote returns the store's remote tier, or nil.
func (s *Store) Remote() *Remote { return s.remote }

// Flush blocks until every write-behind queued against the remote tier has
// been attempted. Sharded workers call it before exiting so the artifacts
// they produced are actually visible to the rest of the fleet.
func (s *Store) Flush() { s.remote.Flush() }

// Close flushes and releases the remote tier's write-behind worker and
// closes this store's pack. A later Put starts a new pack.
func (s *Store) Close() {
	s.remote.Close()
	s.wmu.Lock()
	s.retire()
	s.wmu.Unlock()
}

// RemoteStats returns the remote tier's counters (the zero quad when the
// store has no remote tier). See Remote.Stats for the column remappings.
func (s *Store) RemoteStats() TierStats { return s.remote.Stats() }

// GetRecord returns the raw record bytes stored at a content address — the
// remote object server's GET path, which never learns (kind, key) and so
// cannot decode payloads. The record's framing and embedded identity are
// verified against the address (CRC-swept on the first read per process,
// like Get), so a corrupt or misfiled record is never served and reported
// as a miss.
func (s *Store) GetRecord(addr string) ([]byte, bool) {
	if !validAddress(addr) {
		s.bump(&s.misses)
		return nil, false
	}
	return s.load(addr, func(data []byte, checksum bool) ([]byte, error) {
		kind, key, _, err := decodeRecordAny(data, checksum)
		if err == nil && Address(kind, key) != addr {
			err = fmt.Errorf("%w: record identity does not match address %s", ErrCorrupt, addr)
		}
		return data, err
	})
}

// OpenRecord returns the pack file holding the record at addr, positioned
// at the record's first byte, and the record's length: the object server's
// zero-copy GET path, which streams exactly size bytes from f straight to
// the socket (sendfile on the OS filesystem), never pulling the record
// through user space. The caller closes f. It answers only for records
// this process has already served through a verifying read, and only while
// the store is healthy, unstrict, and running directly on the real
// filesystem — everything else reports ok == false and the caller falls
// back to GetRecord's verifying path. Concurrent eviction is benign: an
// unlinked pack stays readable until closed.
func (s *Store) OpenRecord(addr string) (f *os.File, size int64, ok bool) {
	if !validAddress(addr) {
		return nil, 0, false
	}
	if _, osfs := s.fs.(osFS); !osfs {
		return nil, 0, false
	}
	s.mu.Lock()
	l := s.index[addr]
	streamable := l != nil && l.verified && !s.strict && s.opErrors == 0 && s.verifyFails == 0
	s.mu.Unlock()
	if !streamable || s.diskOff() {
		return nil, 0, false
	}
	f, err := os.Open(s.packPath(l.pack.name))
	if err != nil {
		return nil, 0, false
	}
	if _, err := f.Seek(l.off, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, false
	}
	s.touch(l, false)
	return f, l.n, true
}

// StatRecord reports whether the store holds a record at addr (the remote
// object server's HEAD path). It trusts the index, rescanning on a miss
// like Get, and performs no verification; a corrupt record answers true
// here and fails closed on the GET that follows.
func (s *Store) StatRecord(addr string) bool {
	return validAddress(addr) && s.lookup(addr) != nil
}

// PutRecord verifies an already-encoded record — full framing and checksum
// sweep, since the bytes crossed a network — and appends it under its own
// content address, which must match wantAddr when non-empty. This is the
// remote object server's PUT path: the record authenticates itself, so a
// server can accept writes without ever learning the keyspace.
func (s *Store) PutRecord(record []byte, wantAddr string) (addr string, err error) {
	kind, key, err := RecordInfo(record)
	if err != nil {
		s.bump(&s.verifyFails)
		return "", err
	}
	addr = Address(kind, key)
	if wantAddr != "" && addr != wantAddr {
		s.bump(&s.verifyFails)
		return "", fmt.Errorf("%w: record addresses %s, published as %s", ErrCorrupt, addr, wantAddr)
	}
	return addr, s.publish(addr, record)
}

// touch counts a hit on one verified copy and refreshes its pack's recency,
// in memory and as the file's mtime, so a future process's walk sees
// today's recency. Persisting it is best effort: a failure only ages the
// pack (but still counts against the breaker — the disk is misbehaving).
func (s *Store) touch(l *loc, checksummed bool) {
	now := time.Now()
	s.mu.Lock()
	s.hits++
	l.pack.lastUse = now
	if checksummed {
		l.verified = true
	}
	s.mu.Unlock()
	_ = s.do("touch", func() error { return s.fs.Chtimes(s.packPath(l.pack.name), now, now) })
}

// Stats returns the store's observability counters. ResidentBytes counts
// whole packs (payload plus framing, and any torn tail), matching what the
// disk budget governs; Evictions counts the records evicted packs held.
func (s *Store) Stats() TierStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return TierStats{
		Hits:          s.hits,
		Misses:        s.misses,
		Evictions:     s.evictions,
		ResidentBytes: s.resident,
		VerifyFails:   s.verifyFails,
		OpErrors:      s.opErrors,
		Degraded:      s.degraded || s.fatal != nil,
	}
}
