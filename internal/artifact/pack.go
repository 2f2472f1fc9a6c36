package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"time"
)

// The pack layout. A store directory holds append-only pack files, each a
// plain sequence of records (see record.go) with no header, footer or
// index of its own:
//
//   - each Store creates one pack (named <creation time in hex>-<random>.pack)
//     on its first Put and appends every record it publishes to it, so a
//     cold run creates one file however many records it writes;
//   - Open builds the in-memory index — content address to (pack, offset,
//     length) — by walking record headers, in name (creation) order, so
//     where one address has several copies the newest wins: a copy rebuilt
//     after a verify failure shadows the corrupt one;
//   - a local miss lists the directory again and walks only packs that are
//     new or have grown, so another process's records are visible as soon
//     as they are appended, without a reopen;
//   - a walk stops at the first record that is torn (runs past the end of
//     the file) or whose header does not parse, and indexes nothing past
//     it. A writer abandons its pack after any failed append, so a pack
//     holds complete records followed by at most one torn tail, and the
//     records before the tail stay servable;
//   - the disk budget evicts whole packs, least recently used first. A
//     writer starts a new pack once its own reaches 1/packSplit of the
//     budget (never, with no budget), so small budgets still evict at a
//     fine grain.
const (
	packExt = ".pack"
	// packSplit bounds one pack to this fraction of the disk budget.
	packSplit = 16
	// legacyExt and legacyTmpPrefix name the record files and staged
	// writes of the one-file-per-record layout; Open deletes them, so a
	// directory filled by that layout starts cold once.
	legacyExt       = ".art"
	legacyTmpPrefix = ".tmp-"
)

// pack is one pack file as this store knows it.
type pack struct {
	name string
	// size is the pack's bytes as last observed on disk, what the resident
	// total and the budget count.
	size int64
	// walked is the end of the last complete record indexed; a rescan that
	// finds the file larger than size walks on from here.
	walked int64
	// lastUse orders eviction: the file's mtime when first seen, then the
	// time of every hit and append.
	lastUse time.Time
	// own marks the pack this store's writer appends to; rescans skip it,
	// because the writer indexes its own records.
	own bool
	// gone marks a pack evicted or found deleted: nothing indexes into it
	// again.
	gone bool
}

// loc is one index entry: where a record's bytes live.
type loc struct {
	pack   *pack
	off, n int64
	// verified records that this process has already checksummed this copy
	// (a full-verify read passed). Later reads skip the CRC sweep —
	// structural and key checks still run — unless the store is strict or
	// has seen any fault (see Store.load). Entries indexed by a walk, and
	// records this process appended, start unverified, so the first read
	// per process always pays the full sweep.
	verified bool
}

// WalkPack walks the records of r, a pack of size bytes, from offset off
// on: it calls fn with each complete record's kind, key, offset and length,
// and returns the offset where it stopped — size after the last complete
// record, or the start of the first record that is torn or whose header
// does not parse. It checks framing only, never checksums: the store
// verifies a record when it reads it. err is a read failure, never a
// malformed pack. The store indexes packs with it; tools and tests use it
// to find a record's bytes.
func WalkPack(r io.ReaderAt, off, size int64, fn func(kind uint16, key string, off, n int64)) (int64, error) {
	// One read per record fetches the header and, for the usual key length,
	// the key with it.
	var buf [recordHeaderLen + 512]byte
	for size-off >= int64(recordOverhead(0)) {
		h := buf[:min(int64(len(buf)), size-off)]
		if n, err := r.ReadAt(h, off); n < len(h) {
			return off, eofIsEnd(err)
		}
		kind, keyLen, payLen, err := parseHeader(h)
		if err != nil {
			return off, nil
		}
		rest := uint64(size-off) - uint64(recordOverhead(0))
		if keyLen > rest || payLen > rest-keyLen {
			return off, nil // torn: the record runs past the end of the file
		}
		key := h[recordHeaderLen:min(uint64(len(h)), recordHeaderLen+keyLen)]
		if uint64(len(key)) < keyLen {
			key = make([]byte, keyLen)
			if n, err := r.ReadAt(key, off+recordHeaderLen); n < len(key) {
				return off, eofIsEnd(err)
			}
		}
		n := int64(recordOverhead(int(keyLen))) + int64(payLen)
		fn(kind, string(key), off, n)
		off += n
	}
	return off, nil
}

// eofIsEnd maps a read that hit the end of the file to no error: the pack
// ends there, which a walk treats like a torn tail.
func eofIsEnd(err error) error {
	if err == io.EOF {
		return nil
	}
	return err
}

// packPath returns a pack's path in the store directory.
func (s *Store) packPath(name string) string { return filepath.Join(s.dir, name) }

// openPack returns a positioned reader over the named pack covering at
// least its first need bytes, and the function that releases it. On a
// ReadAtFS it opens the file; on any other FS it reads the whole pack with
// ReadFile and keeps that buffer for the reads that follow, until one needs
// a different pack or bytes past the buffer's end.
func (s *Store) openPack(name string, need int64) (io.ReaderAt, func() error, error) {
	if rfs, ok := s.fs.(ReadAtFS); ok {
		f, err := rfs.OpenReadAt(s.packPath(name))
		if err != nil {
			return nil, nil, err
		}
		return f, f.Close, nil
	}
	s.mu.Lock()
	b := s.buf
	s.mu.Unlock()
	if b == nil || b.name != name || int64(len(b.data)) < need {
		data, err := s.fs.ReadFile(s.packPath(name))
		if err != nil {
			return nil, nil, err
		}
		b = &packBuf{name: name, data: data}
		s.mu.Lock()
		s.buf = b
		s.mu.Unlock()
	}
	return bytes.NewReader(b.data), func() error { return nil }, nil
}

// packBuf is a whole pack read by ReadFile, on an FS without ReadAtFS.
type packBuf struct {
	name string
	data []byte
}

// readRecord reads one record's bytes. A pack shorter than the index says
// yields the bytes that are there, which then fail verification.
func (s *Store) readRecord(l *loc) ([]byte, error) {
	var data []byte
	err := s.do("read", func() error {
		r, release, err := s.openPack(l.pack.name, l.off+l.n)
		if err != nil {
			return err
		}
		defer release()
		data = make([]byte, l.n)
		n, err := r.ReadAt(data, l.off)
		data = data[:n]
		return eofIsEnd(err)
	})
	return data, err
}

// rescan lists the directory and walks every pack that is new or has grown
// since this store last looked, indexing what it finds, and forgets packs
// that have disappeared (another process evicted them). Open runs it first,
// also deleting the one-file-per-record layout's files; a local miss runs
// it again. Only a failed listing is returned: a pack that cannot be read
// is counted and retried on the next rescan.
func (s *Store) rescan(atOpen bool) error {
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	// A pack this store's writer creates after the listing is not in it;
	// only the writer's pack as of now may be judged missing.
	s.mu.Lock()
	var mine *pack
	if s.w != nil {
		mine = s.w.pack
	}
	s.mu.Unlock()
	var entries []fs.DirEntry
	if err := s.do("scan", func() (err error) {
		entries, err = s.fs.ReadDir(s.dir)
		return err
	}); err != nil {
		return err
	}
	listed := make(map[string]bool, len(entries))
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
		case strings.HasSuffix(name, packExt):
			listed[name] = true
			s.walkGrown(name, e)
		case atOpen && (strings.HasSuffix(name, legacyExt) || strings.HasPrefix(name, legacyTmpPrefix)):
			_ = s.do("sweep", func() error { return s.fs.Remove(s.packPath(name)) })
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, p := range s.packs {
		if !listed[name] && (!p.own || p == mine) {
			s.dropPackLocked(p)
		}
	}
	s.evictLocked()
	return nil
}

// walkGrown walks one listed pack if it is new or has grown since it was
// last observed, and indexes the complete records it finds.
func (s *Store) walkGrown(name string, e fs.DirEntry) {
	s.mu.Lock()
	p := s.packs[name]
	own := p != nil && p.own
	s.mu.Unlock()
	if own {
		return
	}
	info, err := e.Info()
	if err != nil {
		return // raced with another process's eviction
	}
	size := info.Size()
	s.mu.Lock()
	if p == nil {
		p = &pack{name: name, lastUse: info.ModTime()}
		s.packs[name] = p
	}
	from, grown := p.walked, size > p.size
	s.mu.Unlock()
	if !grown {
		return
	}
	end := from
	werr := s.do("walk", func() error {
		r, release, err := s.openPack(name, size)
		if err != nil {
			return err
		}
		defer release()
		end, err = WalkPack(r, from, size, func(kind uint16, key string, off, n int64) {
			// A later copy of an address replaces an earlier one.
			addr := Address(kind, key)
			s.mu.Lock()
			if !p.gone {
				s.index[addr] = &loc{pack: p, off: off, n: n}
			}
			s.mu.Unlock()
		})
		return err
	})
	if werr != nil {
		size = end // observed only up to where the walk got; retry the rest later
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.gone || size <= p.size {
		return
	}
	p.walked = end
	s.resident += uint64(size - p.size)
	p.size = size
}

// forget drops addr's index entry if it still points at l, so that copy is
// never served again by this process (a failed verify, a Drop). The bytes
// stay in their pack until the pack is evicted; a rebuilt copy, appended
// later, shadows them in every later process's index.
func (s *Store) forget(addr string, l *loc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.index[addr]; cur != nil && (l == nil || cur == l) {
		delete(s.index, addr)
	}
}

// dropPackLocked forgets a pack and every index entry into it, and returns
// how many entries that was. Called with mu held.
func (s *Store) dropPackLocked(p *pack) (records uint64) {
	for addr, l := range s.index {
		if l.pack == p {
			delete(s.index, addr)
			records++
		}
	}
	s.resident -= uint64(p.size)
	p.gone = true
	delete(s.packs, p.name)
	if s.buf != nil && s.buf.name == p.name {
		s.buf = nil
	}
	return records
}

// evictLocked deletes whole packs, least recently used first, until the
// resident bytes fit the budget; Evictions counts the records they held.
// An open reader elsewhere keeps its already-opened pack (POSIX unlink), it
// just misses next time; a writer in another process appending to an
// evicted pack notices at its next rescan and starts a new one. Called with
// s.mu held, so disk state is checked inline rather than through do; a
// failed unlink only strands the pack until a future open re-indexes it.
func (s *Store) evictLocked() {
	if s.budget == 0 {
		return
	}
	for s.resident > s.budget && len(s.packs) > 0 {
		var victim *pack
		for _, p := range s.packs {
			if victim == nil || p.lastUse.Before(victim.lastUse) {
				victim = p
			}
		}
		s.evictions += s.dropPackLocked(victim)
		if !s.degraded && s.fatal == nil {
			_ = s.fs.Remove(s.packPath(victim.name))
		}
	}
}

// packWriter is the pack this store appends to.
type packWriter struct {
	f    File
	pack *pack
}

// append writes one record to the end of this store's pack, creating the
// pack on first use, and indexes it. Any failed write abandons the pack —
// whatever part of the record landed stays as its one torn tail — and the
// next append starts a new one. Called with wmu held.
func (s *Store) append(addr string, record []byte) error {
	w, err := s.writer()
	if err != nil {
		return err
	}
	var n int
	if err := s.doOnce("write", func() (err error) {
		n, err = w.f.Write(record)
		return err
	}); err != nil {
		s.abandon()
		return fmt.Errorf("artifact: appending record: %w", err)
	}
	s.noteSuccess() // the record landed; the disk is answering
	s.mu.Lock()
	p := w.pack
	if !p.gone {
		s.index[addr] = &loc{pack: p, off: p.size, n: int64(n)}
		p.size += int64(n)
		p.walked = p.size
		p.lastUse = time.Now()
		s.resident += uint64(n)
	}
	s.evictLocked()
	full := p.gone || s.budget > 0 && uint64(p.size) >= s.budget/packSplit
	s.mu.Unlock()
	if full {
		s.retire()
	}
	return nil
}

// writer returns the pack writer, creating a pack if there is none.
// Called with wmu held.
func (s *Store) writer() (*packWriter, error) {
	if s.w != nil {
		s.mu.Lock()
		gone := s.w.pack.gone
		s.mu.Unlock()
		if !gone {
			return s.w, nil
		}
		s.retire() // evicted, here or by another process
	}
	var f File
	pattern := fmt.Sprintf("%016x-*%s", time.Now().UnixNano(), packExt)
	if err := s.do("create", func() (err error) {
		f, err = s.fs.CreateTemp(s.dir, pattern)
		return err
	}); err != nil {
		if err == ErrDegraded {
			return nil, err
		}
		return nil, fmt.Errorf("artifact: creating pack: %w", err)
	}
	p := &pack{name: filepath.Base(f.Name()), own: true, lastUse: time.Now()}
	s.mu.Lock()
	s.packs[p.name] = p
	s.w = &packWriter{f: f, pack: p}
	s.mu.Unlock()
	return s.w, nil
}

// retire closes the writer's pack; the next append starts a new one. It
// bypasses the breaker gate deliberately — even a degraded store owes its
// descriptor a close — and a failed close only counts. Called with wmu
// held.
func (s *Store) retire() {
	if s.w == nil {
		return
	}
	s.bestEffort(s.w.f.Close)
	s.mu.Lock()
	s.w.pack.own = false
	s.w = nil
	s.mu.Unlock()
}

// abandon retires the writer after a failed append. The pack's observed
// size stays at its last complete record, so the next rescan walks the tail
// once: a record that did land whole (a writer that failed after the bytes
// reached the file) is indexed then, a torn one never. A pack no append of
// ours completed in is deleted outright, best effort. Called with wmu held.
func (s *Store) abandon() {
	p := s.w.pack
	s.retire()
	s.mu.Lock()
	empty := p.size == 0 && !p.gone
	if empty {
		s.dropPackLocked(p)
	}
	s.mu.Unlock()
	if empty {
		s.bestEffort(func() error { return s.fs.Remove(s.packPath(p.name)) })
	}
}

// bestEffort runs a cleanup (a close, an unlink) outside the breaker gate,
// counting a failure in OpErrors without feeding the breaker.
func (s *Store) bestEffort(fn func() error) {
	if err := fn(); err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.mu.Lock()
		s.opErrors++
		s.mu.Unlock()
	}
}
