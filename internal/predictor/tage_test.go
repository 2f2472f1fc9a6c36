package predictor

import (
	"strings"
	"testing"

	"branchconf/internal/trace"
)

func TestTageLearnsAlternation(t *testing.T) {
	// T,N,T,N defeats bimodal; any history-indexed bank separates it.
	p := NewTage(8, 6, 7, []uint{4, 9})
	tr := repeat(0x1000, []bool{true, false}, 300)
	if correct := run(p, tr); correct < 520 {
		t.Fatalf("tage on alternation: %d/600 correct", correct)
	}
}

func TestTageLearnsLongPattern(t *testing.T) {
	// A period-9 pattern needs more history than a short-history predictor
	// tracks; the longer banks should capture it.
	pattern := []bool{true, true, true, false, true, true, false, false, true}
	p := NewTage(8, 7, 9, []uint{4, 9, 18})
	tr := repeat(0x2040, pattern, 400)
	correct := run(p, tr)
	if frac := float64(correct) / float64(len(tr)); frac < 0.85 {
		t.Fatalf("tage on period-9 pattern: %d/%d correct (%.2f)", correct, len(tr), frac)
	}
}

func TestTageConfidenceTracksTraining(t *testing.T) {
	p := NewTage(8, 6, 7, []uint{4, 9})
	r := trace.Record{PC: 0x3000, Target: 0x3040, Taken: true}
	// Untrained: weakly-taken base, confidence 0.
	if c := p.AnnotationState(r); c != 0 {
		t.Fatalf("untrained confidence = %d, want 0", c)
	}
	for i := 0; i < 64; i++ {
		p.Predict(r)
		p.Update(r)
	}
	// A long monotone run saturates whichever counter provides.
	if c := p.AnnotationState(r); c != 3 {
		t.Fatalf("saturated confidence = %d, want 3", c)
	}
}

func TestTageResetClearsState(t *testing.T) {
	p := NewTage(8, 6, 7, []uint{4, 9})
	tr := ckptTrace(4000)
	run(p, tr)
	trained := string(p.MarshalState())
	p.Reset()
	fresh := NewTage(8, 6, 7, []uint{4, 9})
	if got := string(p.MarshalState()); got != string(fresh.MarshalState()) {
		t.Fatal("Reset did not restore the initial state")
	} else if got == trained {
		t.Fatal("training left no trace in the state (test is vacuous)")
	}
}

// TestTageCheckpointRoundTrip covers the satellite contract at odd history
// widths: a predictor revived from a mid-trace checkpoint predicts the
// remainder exactly like the continuously trained original, and the
// restored state re-serializes byte-identically.
func TestTageCheckpointRoundTrip(t *testing.T) {
	geoms := []struct {
		base, bank, tag uint
		lengths         []uint
	}{
		{12, 10, 9, []uint{5, 11, 25, 55}}, // registry geometry
		{9, 7, 7, []uint{3, 7, 13, 27}},    // odd widths throughout
		{8, 6, 5, []uint{5}},               // single bank
		{10, 8, 11, []uint{7, 19, 41, 63}}, // near the register ceiling
	}
	tr := ckptTrace(30000)
	for _, g := range geoms {
		for _, cut := range []int{0, 1, 12345, len(tr)} {
			live := NewTage(g.base, g.bank, g.tag, g.lengths)
			run(live, tr[:cut])
			blob := live.MarshalState()

			revived := NewTage(g.base, g.bank, g.tag, g.lengths)
			run(revived, tr[:100]) // stale training the restore must erase
			if err := revived.RestoreState(blob); err != nil {
				t.Fatalf("%v cut %d: restore: %v", g.lengths, cut, err)
			}
			if got := revived.MarshalState(); string(got) != string(blob) {
				t.Fatalf("%v cut %d: restored state re-serializes differently", g.lengths, cut)
			}
			for i, r := range tr[cut:] {
				if live.Predict(r) != revived.Predict(r) || live.AnnotationState(r) != revived.AnnotationState(r) {
					t.Fatalf("%v cut %d: branch %d diverged", g.lengths, cut, cut+i)
				}
				live.Update(r)
				revived.Update(r)
			}
		}
	}
}

// TestTageCheckpointRejects: structural mismatches fail restore before any
// mutation.
func TestTageCheckpointRejects(t *testing.T) {
	p := NewTage(8, 6, 7, []uint{4, 9})
	run(p, ckptTrace(5000))
	blob := p.MarshalState()
	before := string(p.MarshalState())

	reject := func(name string, data []byte, want string) {
		t.Helper()
		err := p.RestoreState(data)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: err = %v, want substring %q", name, err, want)
		}
		if string(p.MarshalState()) != before {
			t.Fatalf("%s: failed restore mutated the receiver", name)
		}
	}
	mut := func(i int, v byte) []byte {
		d := append([]byte(nil), blob...)
		d[i] = v
		return d
	}
	reject("version drift", mut(0, 99), "version 99")
	reject("geometry drift", mut(1, 12), "geometry")
	reject("bank count drift", mut(4, 3), "geometry")
	reject("length drift", mut(5, 6), "bank 0 history 6")
	reject("truncated", blob[:8], "truncated")
	reject("short body", blob[:len(blob)-1], "body")
	reject("trailing bytes", append(append([]byte(nil), blob...), 0), "body")
	// History beyond the 9-bit window.
	bad := append([]byte(nil), blob...)
	bad[7+2] = 0xff // header is 5+2 bytes; BHR bytes follow
	reject("history window", bad, "window")
	// Out-of-range counter in the first bank entry: tag u16, ctr, useful.
	bankOff := 7 + 8 + (1<<8+3)/4
	reject("counter range", mut(bankOff+2, 9), "counter 9")
	reject("useful range", mut(bankOff+3, 5), "useful 5")
	if err := p.RestoreState(blob); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
}

func TestTageGeometryPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero banks":        func() { NewTage(8, 6, 7, nil) },
		"length zero":       func() { NewTage(8, 6, 7, []uint{0, 5}) },
		"length over 64":    func() { NewTage(8, 6, 7, []uint{5, 65}) },
		"non-increasing":    func() { NewTage(8, 6, 7, []uint{5, 5}) },
		"tag bits zero":     func() { NewTage(8, 6, 0, []uint{5}) },
		"base bits over 30": func() { NewTage(31, 6, 7, []uint{5}) },
		"bank bits zero":    func() { NewTage(8, 0, 7, []uint{5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
