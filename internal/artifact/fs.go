package artifact

import (
	"io"
	"io/fs"
	"os"
	"time"
)

// FS is the narrow filesystem seam the store runs on: seven operations in
// their os-package shapes. The production implementation is OSFS;
// internal/faultfs provides a deterministic fault-injecting implementation
// for exercising the store's degradation paths (retry, breaker, torn-pack
// recovery) without a real failing disk.
//
// The pack store creates a pack with CreateTemp and appends to the File it
// returns, lists packs with ReadDir, evicts them with Remove, stamps their
// recency with Chtimes, and deletes the record files of the
// one-file-per-record layout it replaced. It walks packs and reads records
// through the optional ReadAtFS extension when the FS has it, and
// otherwise reads a whole pack with ReadFile. Rename is part of the seam
// but no store path calls it: an append needs no publishing step.
//
// Implementations must preserve the os-package error conventions the store
// classifies on — fs.ErrNotExist from ReadFile/Remove for absent files,
// syscall errnos (wrapped in *fs.PathError or not) for real faults —
// because error identity, via errors.Is, is what separates a benign miss
// from a failure that counts against the health breaker.
type FS interface {
	// MkdirAll creates the store directory as os.MkdirAll does.
	MkdirAll(dir string, perm os.FileMode) error
	// ReadDir lists the store directory as os.ReadDir does.
	ReadDir(dir string) ([]fs.DirEntry, error)
	// ReadFile reads one whole pack as os.ReadFile does.
	ReadFile(name string) ([]byte, error)
	// CreateTemp creates a new pack as os.CreateTemp does.
	CreateTemp(dir, pattern string) (File, error)
	// Rename renames a file as os.Rename does.
	Rename(oldpath, newpath string) error
	// Remove deletes one file as os.Remove does.
	Remove(name string) error
	// Chtimes stamps access recency as os.Chtimes does.
	Chtimes(name string, atime, mtime time.Time) error
}

// File is the slice of *os.File a pack writer uses.
type File interface {
	Write(p []byte) (int, error)
	Close() error
	Name() string
}

// ReadAtFS is the optional FS extension for positioned reads: with it a
// Get reads exactly one record's bytes. OSFS and internal/faultfs
// implement it.
type ReadAtFS interface {
	// OpenReadAt opens a pack for positioned reads as os.Open does.
	OpenReadAt(name string) (ReadAtFile, error)
}

// ReadAtFile is the slice of *os.File positioned reads use.
type ReadAtFile interface {
	io.ReaderAt
	io.Closer
}

// OSFS returns the production FS backed directly by the os package.
func OSFS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}

func (osFS) OpenReadAt(name string) (ReadAtFile, error) { return os.Open(name) }
