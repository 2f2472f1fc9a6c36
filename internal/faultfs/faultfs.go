// Package faultfs is a deterministic fault-injecting implementation of the
// artifact.FS seam, for exercising the persistent tier's degradation paths
// — classification, retry, the health breaker, torn-pack recovery — without
// a real failing disk.
//
// An FS wraps an inner filesystem (normally artifact.OSFS) and consults a
// fault plan before delegating each operation. Two plan styles compose:
//
//   - explicit schedules: Inject(Fault{Op, Nth, Err, Mode}) fails the Nth
//     invocation of one operation (or every invocation with Nth == 0) with
//     a chosen errno, exactly reproducibly;
//   - seeded storms: SeedRandom(seed, rate, errs...) fails each operation
//     with probability rate, drawing the errno from errs via a private
//     PRNG — deterministic for a fixed seed and call sequence.
//
// Beyond clean failures, three fault modes model the messier realities of a
// dying disk, all on a pack append (OpWrite): PartialWrite lands a prefix
// of the bytes before erroring (matching the io contract: n < len(p) with a
// non-nil error) and the writer lives on; CrashMidAppend lands the same
// prefix but simulates the writer dying there — the file is pinned, so the
// dead writer's later writes, close and cleanup Remove all fail, and the
// pack keeps its torn tail for the next Open to recover from;
// CrashAfterAppend simulates death just after the append — every byte lands
// but the writer never learns it, and the file is pinned the same way.
// Clear ends the simulated outage, as a process restart would.
//
// Positioned reads (the optional artifact.ReadAtFS extension) count and
// fail as OpReadFile when the pack is opened: a record read is one read.
//
// Errors are wrapped in *io/fs.PathError around real syscall errnos, so the
// store's errors.Is-based classification sees exactly what the os package
// would produce.
package faultfs

import (
	"bytes"
	"errors"
	iofs "io/fs"
	"math/rand"
	"os"
	"sync"
	"time"

	"branchconf/internal/artifact"
)

// Op identifies one operation of the artifact.FS seam.
type Op uint8

const (
	OpMkdirAll Op = iota
	OpReadDir
	OpReadFile
	OpCreateTemp
	OpWrite
	OpClose
	OpRename
	OpRemove
	OpChtimes
	numOps
)

// opNames is indexed by Op, for PathError and String rendering.
var opNames = [numOps]string{
	"mkdirall", "readdir", "readfile", "createtemp",
	"write", "close", "rename", "remove", "chtimes",
}

// String names the operation.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// Mode selects what an injected fault does beyond returning an error.
type Mode uint8

const (
	// FailOp returns the fault's error with no side effect: the operation
	// never reaches the inner filesystem.
	FailOp Mode = iota
	// PartialWrite (OpWrite only) writes the first half of the buffer to
	// the inner file, then returns the short count and the fault's error.
	PartialWrite
	// CrashMidAppend (OpWrite only) simulates the writer dying inside an
	// append: the first half of the buffer lands, the short count and the
	// fault's error are returned, and the file is pinned so the dead
	// writer's later writes, close and Remove fail until Clear.
	CrashMidAppend
	// CrashAfterAppend (OpWrite only) simulates the writer dying just after
	// an append: every byte lands, the full count comes back with the
	// fault's error as if the writer never saw the append complete, and
	// the file is pinned as in CrashMidAppend.
	CrashAfterAppend
)

// Fault schedules one injection.
type Fault struct {
	// Op is the operation to fail.
	Op Op
	// Nth fails only the Nth invocation of Op (1-based, counted from the
	// fault's installation); 0 fails every invocation.
	Nth uint64
	// Err is the error to inject, typically a syscall errno such as
	// syscall.ENOSPC; it is wrapped in a *fs.PathError like a real fault.
	Err error
	// Mode is the fault's side-effect shape; the zero value is a clean
	// failure.
	Mode Mode
}

// FS is a fault-injecting artifact.FS. The zero value is not usable; wrap
// an inner filesystem with New.
type FS struct {
	inner artifact.FS

	mu       sync.Mutex
	calls    [numOps]uint64 // invocations since New, per op
	injected uint64         // faults fired
	faults   []fault
	rng      *rand.Rand // non-nil after SeedRandom
	rate     float64
	pool     []error
	pinned   map[string]bool // files of crashed writers: writes, close and Remove fail
}

// fault is an installed Fault plus the op-call count at installation, so
// Nth counts invocations after Inject rather than process lifetime.
type fault struct {
	Fault
	base  uint64
	spent bool
}

// New wraps inner (artifact.OSFS() for a real directory) with an initially
// fault-free injector.
func New(inner artifact.FS) *FS {
	return &FS{inner: inner, pinned: make(map[string]bool)}
}

// Inject installs explicit fault schedules. Faults accumulate; each
// Nth-scheduled fault fires once, an Nth == 0 fault fires on every
// invocation until Clear.
func (f *FS) Inject(faults ...Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, fl := range faults {
		f.faults = append(f.faults, fault{Fault: fl, base: f.calls[fl.Op]})
	}
}

// SeedRandom arms probabilistic injection: every operation fails with
// probability rate, with the error drawn from pool (syscall errnos).
// Deterministic for a fixed seed and operation sequence. Explicit faults
// installed with Inject are consulted first.
func (f *FS) SeedRandom(seed int64, rate float64, pool ...error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rng = rand.New(rand.NewSource(seed))
	f.rate = rate
	f.pool = pool
}

// Clear ends the outage: all schedules, the random plan, and crash pins are
// dropped, as if the faulty process had restarted on healthy media. Call
// counters are retained.
func (f *FS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = nil
	f.rng = nil
	f.rate = 0
	f.pool = nil
	f.pinned = make(map[string]bool)
}

// Calls reports how many times op has been invoked (faulted or not).
func (f *FS) Calls(op Op) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[op]
}

// Injected reports how many faults have fired.
func (f *FS) Injected() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// check advances op's call counter and returns the fault to fire now, if
// any, wrapped as a *fs.PathError on path.
func (f *FS) check(op Op, path string) (Mode, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls[op]++
	for i := range f.faults {
		fl := &f.faults[i]
		if fl.spent || fl.Op != op {
			continue
		}
		if fl.Nth != 0 && f.calls[op]-fl.base != fl.Nth {
			continue
		}
		if fl.Nth != 0 {
			fl.spent = true
		}
		f.injected++
		return fl.Mode, &iofs.PathError{Op: op.String(), Path: path, Err: fl.Err}
	}
	if f.rng != nil && len(f.pool) > 0 && f.rng.Float64() < f.rate {
		f.injected++
		return FailOp, &iofs.PathError{Op: op.String(), Path: path, Err: f.pool[f.rng.Intn(len(f.pool))]}
	}
	return FailOp, nil
}

// pin marks path as owned by a crashed writer: its writes, close and
// Remove fail until Clear, like a file nobody alive can clean up.
func (f *FS) pin(path string) {
	f.mu.Lock()
	f.pinned[path] = true
	f.mu.Unlock()
}

func (f *FS) isPinned(path string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pinned[path]
}

// MkdirAll implements artifact.FS.
func (f *FS) MkdirAll(dir string, perm os.FileMode) error {
	if _, err := f.check(OpMkdirAll, dir); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir, perm)
}

// ReadDir implements artifact.FS.
func (f *FS) ReadDir(dir string) ([]iofs.DirEntry, error) {
	if _, err := f.check(OpReadDir, dir); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

// ReadFile implements artifact.FS.
func (f *FS) ReadFile(name string) ([]byte, error) {
	if _, err := f.check(OpReadFile, name); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

// OpenReadAt implements artifact.ReadAtFS, counting and faulting the open
// as OpReadFile. An inner filesystem without positioned reads is read
// whole.
func (f *FS) OpenReadAt(name string) (artifact.ReadAtFile, error) {
	if _, err := f.check(OpReadFile, name); err != nil {
		return nil, err
	}
	if rfs, ok := f.inner.(artifact.ReadAtFS); ok {
		return rfs.OpenReadAt(name)
	}
	data, err := f.inner.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return wholeFile{bytes.NewReader(data)}, nil
}

// wholeFile serves positioned reads from a file read whole.
type wholeFile struct{ *bytes.Reader }

func (wholeFile) Close() error { return nil }

// CreateTemp implements artifact.FS; the returned file routes Write and
// Close back through the injector.
func (f *FS) CreateTemp(dir, pattern string) (artifact.File, error) {
	if _, err := f.check(OpCreateTemp, dir); err != nil {
		return nil, err
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner}, nil
}

// Rename implements artifact.FS.
func (f *FS) Rename(oldpath, newpath string) error {
	if _, err := f.check(OpRename, oldpath); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements artifact.FS. Files pinned by a simulated crash refuse
// deletion until Clear.
func (f *FS) Remove(name string) error {
	if f.isPinned(name) {
		return f.pinnedErr("remove", name)
	}
	if _, err := f.check(OpRemove, name); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// pinnedErr counts and returns the unclassified (hence never-retried)
// error every operation on a crash-pinned path yields.
func (f *FS) pinnedErr(op, path string) error {
	f.mu.Lock()
	f.injected++
	f.mu.Unlock()
	return &iofs.PathError{Op: op, Path: path, Err: errors.New("faultfs: path pinned by simulated crash")}
}

// Chtimes implements artifact.FS.
func (f *FS) Chtimes(name string, atime, mtime time.Time) error {
	if _, err := f.check(OpChtimes, name); err != nil {
		return err
	}
	return f.inner.Chtimes(name, atime, mtime)
}

// file wraps an inner artifact.File, routing Write and Close through the
// injector so append faults (short writes, crashes, failed closes) are
// reachable.
type file struct {
	fs    *FS
	inner artifact.File
}

// Write implements artifact.File. Under PartialWrite and CrashMidAppend,
// half the buffer reaches the inner file before the error — the on-disk
// state a real torn append leaves; under CrashAfterAppend all of it does.
func (w *file) Write(p []byte) (int, error) {
	if w.fs.isPinned(w.inner.Name()) {
		return 0, w.fs.pinnedErr("write", w.inner.Name())
	}
	mode, err := w.fs.check(OpWrite, w.inner.Name())
	if err == nil {
		return w.inner.Write(p)
	}
	switch mode {
	case PartialWrite, CrashMidAppend:
		n, _ := w.inner.Write(p[:len(p)/2])
		if mode == CrashMidAppend {
			w.fs.pin(w.inner.Name())
		}
		return n, err
	case CrashAfterAppend:
		n, _ := w.inner.Write(p)
		w.fs.pin(w.inner.Name())
		return n, err
	default:
		return 0, err
	}
}

// Close implements artifact.File. A crashed writer's close fails, but the
// descriptor is released either way.
func (w *file) Close() error {
	if w.fs.isPinned(w.inner.Name()) {
		_ = w.inner.Close()
		return w.fs.pinnedErr("close", w.inner.Name())
	}
	if _, err := w.fs.check(OpClose, w.inner.Name()); err != nil {
		_ = w.inner.Close() // release the descriptor either way
		return err
	}
	return w.inner.Close()
}

// Name implements artifact.File.
func (w *file) Name() string { return w.inner.Name() }
