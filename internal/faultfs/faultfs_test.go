package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"branchconf/internal/artifact"
)

// writeFile plants a real file for the injector to operate on.
func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestNthSchedule: an Nth fault fires on exactly that invocation, once, and
// the injected error matches the scheduled errno through errors.Is (the
// property the store's classifier depends on).
func TestNthSchedule(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	writeFile(t, path, []byte("data"))
	f := New(artifact.OSFS())
	f.Inject(Fault{Op: OpReadFile, Nth: 2, Err: syscall.EIO})

	if _, err := f.ReadFile(path); err != nil {
		t.Fatalf("1st read faulted early: %v", err)
	}
	if _, err := f.ReadFile(path); !errors.Is(err, syscall.EIO) {
		t.Fatalf("2nd read error = %v, want EIO", err)
	}
	if _, err := f.ReadFile(path); err != nil {
		t.Fatalf("3rd read faulted after schedule spent: %v", err)
	}
	if got := f.Calls(OpReadFile); got != 3 {
		t.Fatalf("Calls(OpReadFile) = %d, want 3", got)
	}
	if got := f.Injected(); got != 1 {
		t.Fatalf("Injected = %d, want 1", got)
	}
}

// TestEveryInvocation: Nth == 0 fails every call until Clear.
func TestEveryInvocation(t *testing.T) {
	dir := t.TempDir()
	f := New(artifact.OSFS())
	f.Inject(Fault{Op: OpCreateTemp, Err: syscall.ENOSPC})
	for i := 0; i < 3; i++ {
		if _, err := f.CreateTemp(dir, ".tmp-*"); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("CreateTemp %d error = %v, want ENOSPC", i, err)
		}
	}
	f.Clear()
	tmp, err := f.CreateTemp(dir, ".tmp-*")
	if err != nil {
		t.Fatalf("CreateTemp after Clear: %v", err)
	}
	tmp.Close()
}

// TestPartialWrite: half the buffer lands in the inner file before the
// error, matching what a torn write leaves on disk.
func TestPartialWrite(t *testing.T) {
	dir := t.TempDir()
	f := New(artifact.OSFS())
	tmp, err := f.CreateTemp(dir, ".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	f.Inject(Fault{Op: OpWrite, Nth: 1, Err: syscall.EIO, Mode: PartialWrite})
	n, err := tmp.Write([]byte("0123456789"))
	if n != 5 || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Write = (%d, %v), want (5, EIO)", n, err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "01234" {
		t.Fatalf("torn file holds %q, want the first half", data)
	}
}

// TestCrashMidAppend: half the record lands, and the dead writer can
// neither write, close nor remove its file until Clear ends the outage.
func TestCrashMidAppend(t *testing.T) {
	dir := t.TempDir()
	f := New(artifact.OSFS())
	pack, err := f.CreateTemp(dir, "*.pack")
	if err != nil {
		t.Fatal(err)
	}
	f.Inject(Fault{Op: OpWrite, Nth: 1, Err: syscall.EIO, Mode: CrashMidAppend})
	if n, err := pack.Write([]byte("0123456789")); n != 5 || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Write = (%d, %v), want (5, EIO)", n, err)
	}
	if _, err := pack.Write([]byte("more")); err == nil {
		t.Fatal("a crashed writer appended again")
	}
	if err := pack.Close(); err == nil {
		t.Fatal("a crashed writer's close succeeded")
	}
	if err := f.Remove(pack.Name()); err == nil {
		t.Fatal("a crashed writer's cleanup Remove succeeded")
	}
	data, err := os.ReadFile(pack.Name())
	if err != nil || string(data) != "01234" {
		t.Fatalf("torn pack holds %q (err %v), want the first half", data, err)
	}
	f.Clear()
	if err := f.Remove(pack.Name()); err != nil {
		t.Fatalf("Remove after Clear: %v", err)
	}
}

// TestCrashAfterAppend: every byte lands but the writer sees a failure, as
// if it died before observing the append return.
func TestCrashAfterAppend(t *testing.T) {
	dir := t.TempDir()
	f := New(artifact.OSFS())
	pack, err := f.CreateTemp(dir, "*.pack")
	if err != nil {
		t.Fatal(err)
	}
	f.Inject(Fault{Op: OpWrite, Nth: 1, Err: syscall.EIO, Mode: CrashAfterAppend})
	if n, err := pack.Write([]byte("record")); n != 6 || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Write = (%d, %v), want (6, EIO)", n, err)
	}
	if err := f.Remove(pack.Name()); err == nil {
		t.Fatal("a crashed writer's cleanup Remove succeeded")
	}
	if data, err := os.ReadFile(pack.Name()); err != nil || string(data) != "record" {
		t.Fatalf("pack holds %q (err %v), want the whole append", data, err)
	}
}

// TestOpenReadAtCountsAsRead: opening a file for positioned reads is one
// OpReadFile, faulted like a whole-file read, and its reads are the file's
// bytes.
func TestOpenReadAtCountsAsRead(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	writeFile(t, path, []byte("0123456789"))
	f := New(artifact.OSFS())
	f.Inject(Fault{Op: OpReadFile, Nth: 1, Err: syscall.EIO})
	if _, err := f.OpenReadAt(path); !errors.Is(err, syscall.EIO) {
		t.Fatalf("1st OpenReadAt error = %v, want EIO", err)
	}
	r, err := f.OpenReadAt(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 3)
	if _, err := r.ReadAt(buf, 4); err != nil || string(buf) != "456" {
		t.Fatalf("ReadAt = %q, %v", buf, err)
	}
	if got := f.Calls(OpReadFile); got != 2 {
		t.Fatalf("Calls(OpReadFile) = %d, want 2", got)
	}
}

// TestSeededStormDeterministic: the same seed, rate and call sequence
// injects at the same points with the same errnos.
func TestSeededStormDeterministic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	writeFile(t, path, []byte("data"))
	trial := func() []string {
		f := New(artifact.OSFS())
		f.SeedRandom(7, 0.4, syscall.EIO, syscall.ENOSPC, syscall.EACCES)
		var pattern []string
		for i := 0; i < 64; i++ {
			if _, err := f.ReadFile(path); err != nil {
				pattern = append(pattern, err.Error())
			} else {
				pattern = append(pattern, "ok")
			}
		}
		if f.Injected() == 0 {
			t.Fatal("storm at rate 0.4 injected nothing over 64 ops")
		}
		return pattern
	}
	a, b := trial(), trial()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("storms diverge at op %d: %q vs %q", i, a[i], b[i])
		}
	}
}
