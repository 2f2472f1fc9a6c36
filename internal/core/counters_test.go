package core

import (
	"testing"
	"testing/quick"
)

func TestCounterTableDefaults(t *testing.T) {
	m := PaperResetting()
	if m.TableBits() != 16 || m.Max() != 16 {
		t.Fatalf("defaults %d/%d", m.TableBits(), m.Max())
	}
	if m.Name() != "1lev-BHRxorPC.Reset16-2^16" {
		t.Fatalf("name %q", m.Name())
	}
	// Counter init 0 = the low-confidence analogue of all-ones CIRs.
	if m.Bucket(rec(0x1000, true)) != 0 {
		t.Fatal("initial counter not 0")
	}
}

func TestResettingTableSemantics(t *testing.T) {
	m := NewCounterTable(CounterConfig{Kind: Resetting, Scheme: IndexPC, TableBits: 8, Max: 16})
	r := rec(0x1000, true)
	for i := 1; i <= 20; i++ {
		m.Update(r, false)
		want := uint64(i)
		if i > 16 {
			want = 16
		}
		if got := m.Bucket(r); got != want {
			t.Fatalf("after %d correct: bucket %d want %d", i, got, want)
		}
	}
	m.Update(r, true)
	if got := m.Bucket(r); got != 0 {
		t.Fatalf("after incorrect: bucket %d want 0", got)
	}
}

func TestSaturatingTableSemantics(t *testing.T) {
	m := NewCounterTable(CounterConfig{Kind: Saturating, Scheme: IndexPC, TableBits: 8, Max: 16})
	r := rec(0x1000, true)
	for i := 0; i < 20; i++ {
		m.Update(r, false)
	}
	if got := m.Bucket(r); got != 16 {
		t.Fatalf("saturated bucket %d", got)
	}
	m.Update(r, true)
	if got := m.Bucket(r); got != 15 {
		t.Fatalf("after one incorrect: %d, want 15 (decrement, not reset)", got)
	}
}

// Property: with PC indexing and a single PC, the resetting-table bucket
// always equals min(max, run of correct updates since last incorrect).
func TestResettingTableTracksRun(t *testing.T) {
	check := func(ops uint64) bool {
		m := NewCounterTable(CounterConfig{Kind: Resetting, Scheme: IndexPC, TableBits: 4, Max: 16})
		r := rec(0x1000, true)
		run := 0
		for i := 0; i < 64; i++ {
			incorrect := ops>>uint(i)&1 == 1
			m.Update(r, incorrect)
			if incorrect {
				run = 0
			} else {
				run++
			}
			want := run
			if want > 16 {
				want = 16
			}
			if int(m.Bucket(r)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterTableAliasing(t *testing.T) {
	// Two PCs colliding in a tiny table share a counter: a misprediction
	// by either resets it — the §5.3 aliasing effect.
	m := NewCounterTable(CounterConfig{Kind: Resetting, Scheme: IndexPC, TableBits: 1, Max: 16, HistoryBits: 1})
	a, b := rec(0x1000, true), rec(0x1010, true)
	// With 1 table bit, PCIndexBits(pc,1) = (pc>>2)&1: 0x1000→0, 0x1010→0.
	for i := 0; i < 5; i++ {
		m.Update(a, false)
	}
	if m.Bucket(a) != 5 {
		t.Fatalf("bucket %d", m.Bucket(a))
	}
	m.Update(b, true) // aliased partner mispredicts
	if m.Bucket(a) != 0 {
		t.Fatalf("aliased reset did not propagate: bucket %d", m.Bucket(a))
	}
}

func TestCounterTableReset(t *testing.T) {
	m := NewCounterTable(CounterConfig{Kind: Resetting, Scheme: IndexPC, TableBits: 4, Max: 8, Init: 3})
	r := rec(0x1000, true)
	if m.Bucket(r) != 3 {
		t.Fatalf("init bucket %d", m.Bucket(r))
	}
	for i := 0; i < 5; i++ {
		m.Update(r, false)
	}
	m.Reset()
	if m.Bucket(r) != 3 {
		t.Fatalf("bucket after Reset %d, want 3", m.Bucket(r))
	}
}

func TestSmallResetting(t *testing.T) {
	m := SmallResetting(12)
	if m.TableBits() != 12 {
		t.Fatalf("table bits %d", m.TableBits())
	}
}

func TestCounterTablePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"table-31": func() { NewCounterTable(CounterConfig{TableBits: 31}) },
		"init>max": func() { NewCounterTable(CounterConfig{Max: 4, Init: 5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStaticProfileMechanism(t *testing.T) {
	m := NewStaticProfile()
	if m.Bucket(rec(0x1234, true)) != 0x1234 {
		t.Fatal("static bucket is not the PC")
	}
	m.Update(rec(0x1234, true), true) // no-op
	m.Reset()
	if m.Name() != "static" {
		t.Fatalf("name %q", m.Name())
	}
}

func TestTwoLevelDefaults(t *testing.T) {
	m := NewTwoLevel(TwoLevelConfig{})
	if m.Name() != "2lev-PC-CIR" {
		t.Fatalf("name %q", m.Name())
	}
	if got := m.Bucket(rec(0x1000, true)); got != 0xFFFF {
		t.Fatalf("initial bucket %x", got)
	}
}

func TestTwoLevelVariants(t *testing.T) {
	vs := PaperTwoLevels()
	if len(vs) != 3 {
		t.Fatalf("%d variants", len(vs))
	}
	names := []string{"2lev-PC-CIR", "2lev-BHRxorPC-CIR", "2lev-BHRxorPC-BHRxorCIRxorPC"}
	for i, v := range vs {
		if v.Name() != names[i] {
			t.Fatalf("variant %d name %q want %q", i, v.Name(), names[i])
		}
	}
}

func TestTwoLevelUpdatePropagates(t *testing.T) {
	m := NewTwoLevel(TwoLevelConfig{Scheme1: IndexPC, Scheme2: L2CIR, L1Bits: 4, L1CIRBits: 4, L2CIRBits: 4, Init: InitZeros, HistoryBits: 4})
	r := rec(0x1000, true)
	// Initially both levels zero: bucket = t2[0] = 0.
	if m.Bucket(r) != 0 {
		t.Fatal("initial bucket nonzero")
	}
	// One incorrect: t1[pc] becomes 0001, t2[0] becomes 0001.
	m.Update(r, true)
	// Now index2 = t1 CIR = 0001 → t2[1], still zero.
	if got := m.Bucket(r); got != 0 {
		t.Fatalf("bucket %04b, want 0 (fresh second-level entry)", got)
	}
	// Correct update: t1 → 0010, t2[1] → 0000<<1|0 = 0.
	m.Update(r, false)
	// index2 = 0010 → t2[2] zero.
	if got := m.Bucket(r); got != 0 {
		t.Fatalf("bucket %04b", got)
	}
	// Drive the same first-level pattern twice to see second-level history.
	// Pattern cycle: after (incorrect, correct) t1 = 0b10. Another
	// (incorrect, correct): t1 goes 0b101 → 0b1010; second-level entry for
	// 0b10 saw "incorrect" the last time t1 read 0b10.
	m.Update(r, true)
	m.Update(r, false)
	// t1 now 1010; bucket = t2[1010 & 0xF].
	_ = m.Bucket(r)
}

func TestTwoLevelSecondIndexVariants(t *testing.T) {
	for _, s2 := range []SecondIndex{L2CIR, L2CIRxorPC, L2CIRxorBHR, L2CIRxorPCxorBHR} {
		m := NewTwoLevel(TwoLevelConfig{Scheme1: IndexPCxorBHR, Scheme2: s2, L1Bits: 6, L1CIRBits: 6, L2CIRBits: 6, HistoryBits: 6})
		r := rec(0x1000, true)
		m.Bucket(r)
		m.Update(r, true)
		m.Update(r, false)
		if m.Name() == "" {
			t.Fatal("empty name")
		}
	}
}

func TestTwoLevelReset(t *testing.T) {
	m := NewTwoLevel(TwoLevelConfig{L1Bits: 6, L1CIRBits: 6, L2CIRBits: 6, HistoryBits: 6})
	r := rec(0x1000, true)
	for i := 0; i < 50; i++ {
		m.Update(r, i%5 == 0)
	}
	m.Reset()
	if got := m.Bucket(r); got != 0x3F {
		t.Fatalf("bucket after reset %x, want 3f", got)
	}
}

func TestTwoLevelPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"l1-31":    func() { NewTwoLevel(TwoLevelConfig{L1Bits: 31}) },
		"l1cir-27": func() { NewTwoLevel(TwoLevelConfig{L1CIRBits: 27}) },
		"l2cir-65": func() { NewTwoLevel(TwoLevelConfig{L2CIRBits: 65}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestCounterTableDefersFill: construction and Reset leave the table
// unallocated or unfilled until the first access, as OneLevel's is, so a
// table built only to name a spec or key a stage-3 walk costs no 2^bits
// fill; the first access still sees every counter at its initial value.
func TestCounterTableDefersFill(t *testing.T) {
	m := NewCounterTable(CounterConfig{Kind: Resetting, Scheme: IndexPC, Max: 8, Init: 3})
	if m.table != nil {
		t.Fatalf("construction allocated a %d-entry table", len(m.table))
	}
	r := rec(0x1000, true)
	if b := m.Bucket(r); b != 3 {
		t.Fatalf("first read %d, want the initial value 3", b)
	}
	m.Update(r, true)
	if b := m.Bucket(r); b != 0 {
		t.Fatalf("read after a miss %d, want 0", b)
	}
	m.Reset()
	if !m.tableDirty {
		t.Fatal("Reset refilled the table eagerly")
	}
	if b := m.BucketUpdate(r, false); b != 3 {
		t.Fatalf("first read after Reset %d, want the initial value 3", b)
	}
}
