package artifact

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestStoreRebuiltCopyShadowsCorrupt: once a corrupt record has been
// rebuilt into a newer pack, the next process serves the rebuilt copy
// without touching the corrupt one.
func TestStoreRebuiltCopyShadowsCorrupt(t *testing.T) {
	dir := t.TempDir()
	first, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Put(KindModelStats, "k", []byte("model counts")); err != nil {
		t.Fatal(err)
	}
	flipRecordByte(t, first, KindModelStats, "k", -9, 0x04) // the last payload byte
	first.Close()

	second, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := second.Get(KindModelStats, "k"); ok {
		t.Fatal("corrupt record served")
	}
	if err := second.Put(KindModelStats, "k", []byte("model counts")); err != nil {
		t.Fatal(err)
	}
	second.Close()
	if n := len(packFiles(t, dir)); n != 2 {
		t.Fatalf("%d packs, want the corrupt one and the rebuilt one", n)
	}

	third, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := third.Get(KindModelStats, "k"); !ok || string(got) != "model counts" {
		t.Fatalf("rebuilt record: ok=%v %q", ok, got)
	}
	if st := third.Stats(); st.VerifyFails != 0 {
		t.Fatalf("stats = %+v, want the corrupt copy never read", st)
	}
}

// TestStorePackSplitsAtBudgetFraction: a store writes one pack until it
// reaches 1/packSplit of the budget, then starts the next; with no budget
// it never splits.
func TestStorePackSplitsAtBudgetFraction(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 100)
	rec := uint64(len(EncodeRecord(KindCurve, "k0", payload)))
	for _, tc := range []struct {
		budget uint64
		packs  int
	}{
		{0, 1},
		{packSplit * 5 * rec / 2, 3}, // a pack closes at its third record
	} {
		dir := t.TempDir()
		s, err := Open(dir, tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 7; i++ {
			if err := s.Put(KindCurve, fmt.Sprint("k", i), payload); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(packFiles(t, dir)); n != tc.packs {
			t.Errorf("budget %d: %d packs, want %d", tc.budget, n, tc.packs)
		}
		if st := s.Stats(); st.Evictions != 0 || st.ResidentBytes != 7*rec {
			t.Errorf("budget %d: stats = %+v, want 7 records resident", tc.budget, st)
		}
	}
}

// TestStoreOpenRecordServesPackSpan: the zero-copy path hands out the pack
// positioned at the record, and only for a record already verified.
func TestStoreOpenRecordServesPackSpan(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"first", "second"} {
		if err := s.Put(KindCurve, k, []byte("payload of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	addr := Address(KindCurve, "second")
	if _, _, ok := s.OpenRecord(addr); ok {
		t.Fatal("zero-copy path served a record no read had verified")
	}
	want := EncodeRecord(KindCurve, "second", []byte("payload of second"))
	if got, ok := s.GetRecord(addr); !ok || !bytes.Equal(got, want) {
		t.Fatalf("GetRecord: ok=%v", ok)
	}
	f, size, ok := s.OpenRecord(addr)
	if !ok {
		t.Fatal("zero-copy path refused a verified record")
	}
	defer f.Close()
	got, err := io.ReadAll(io.LimitReader(f, size))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("zero-copy span = %q (err %v), want the record", got, err)
	}
}

// FuzzPackScan appends arbitrary bytes to a pack of genuine records, flips
// bits and truncates it, then opens it: Open must never panic, every record
// a Get serves must be a complete, checksummed record in the pack, every
// genuine record before the first damaged byte must still be served (unless
// a later copy of its key shadows it), and nothing may be indexed past a
// torn genuine record.
func FuzzPackScan(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(0), byte(0))
	f.Add([]byte("BCA1\x01\x00\x04\x00"), uint32(0), uint32(0), byte(0))
	f.Add([]byte{}, uint32(7), uint32(0), byte(0))
	f.Add([]byte{}, uint32(0), uint32(30), byte(0x40))
	f.Add([]byte{}, uint32(0), uint32(9), byte(0xff))
	f.Add(EncodeRecord(KindCurve, "g1", []byte("forged")), uint32(3), uint32(0), byte(0))
	f.Fuzz(func(t *testing.T, tail []byte, cut, flip uint32, mask byte) {
		type genuine struct {
			key        string
			payload    []byte
			start, end int
		}
		var pack []byte
		var recs []genuine
		for i, p := range [][]byte{[]byte("alpha payload"), nil, bytes.Repeat([]byte{0xA5}, 700)} {
			g := genuine{key: fmt.Sprint("g", i), payload: p, start: len(pack)}
			pack = append(pack, EncodeRecord(KindCurve, g.key, p)...)
			g.end = len(pack)
			recs = append(recs, g)
		}
		pack = append(pack, tail...)
		damaged := len(pack) // first byte that is not genuine
		if mask != 0 {
			i := int(flip % uint32(len(pack)))
			pack[i] ^= mask
			damaged = min(damaged, i)
		}
		if cut > 0 {
			pack = pack[:len(pack)-int(cut%uint32(len(pack)+1))]
			damaged = min(damaged, len(pack))
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "0000000000000000-fuzz.pack"), pack, 0o666); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		torn := len(pack) // start of a genuine record cut short, if any
		for _, g := range recs {
			if g.start < len(pack) && len(pack) < g.end && damaged == len(pack) {
				torn = g.start
			}
		}
		for _, l := range s.index {
			if l.off < 0 || l.off+l.n > int64(len(pack)) {
				t.Fatalf("indexed [%d, %d) past the pack's %d bytes", l.off, l.off+l.n, len(pack))
			}
			if l.off >= int64(torn) {
				t.Fatalf("indexed a record at %d, past the torn record at %d", l.off, torn)
			}
		}
		for _, g := range recs {
			got, ok := s.Get(KindCurve, g.key)
			if ok && !bytes.Contains(pack, EncodeRecord(KindCurve, g.key, got)) {
				t.Fatalf("%s: served a payload no complete record in the pack holds", g.key)
			}
			// A later copy of the key, damaged or not, may shadow the
			// genuine one: the newest copy wins.
			shadowed := bytes.Contains(pack[min(g.end, len(pack)):], []byte(g.key))
			if g.end <= damaged && !shadowed && (!ok || !bytes.Equal(got, g.payload)) {
				t.Fatalf("%s: undamaged record not served (ok=%v)", g.key, ok)
			}
		}
	})
}
