package predictor

import (
	"strings"
	"testing"

	"branchconf/internal/trace"
)

func TestPerceptronLearnsBias(t *testing.T) {
	p := NewPerceptron(8, 4, 4)
	tr := repeat(0x1000, []bool{true}, 400)
	if correct := run(p, tr); correct < 390 {
		t.Fatalf("perceptron on constant branch: %d/400 correct", correct)
	}
}

func TestPerceptronLearnsAlternation(t *testing.T) {
	p := NewPerceptron(8, 4, 4)
	tr := repeat(0x2000, []bool{true, false}, 300)
	if correct := run(p, tr); correct < 520 {
		t.Fatalf("perceptron on alternation: %d/600 correct", correct)
	}
}

func TestPerceptronConfidenceTracksMargin(t *testing.T) {
	p := NewPerceptron(8, 4, 4)
	r := trace.Record{PC: 0x3000, Target: 0x3040, Taken: true}
	if c := p.AnnotationState(r); c != 0 {
		t.Fatalf("untrained confidence = %d, want 0", c)
	}
	// Train far past theta: every contributing weight rails at +127, so
	// the margin saturates the confidence scale.
	for i := 0; i < 400; i++ {
		p.Predict(r)
		p.Update(r)
	}
	if c := p.AnnotationState(r); c != 3 {
		t.Fatalf("saturated confidence = %d, want 3", c)
	}
}

func TestPerceptronResetClearsState(t *testing.T) {
	p := NewPerceptron(8, 4, 4)
	run(p, ckptTrace(4000))
	trained := string(p.MarshalState())
	p.Reset()
	fresh := NewPerceptron(8, 4, 4)
	if got := string(p.MarshalState()); got != string(fresh.MarshalState()) {
		t.Fatal("Reset did not restore the initial state")
	} else if got == trained {
		t.Fatal("training left no trace in the state (test is vacuous)")
	}
}

// TestPerceptronCheckpointRoundTrip covers the satellite contract at odd
// history widths, including totals that straddle a word boundary.
func TestPerceptronCheckpointRoundTrip(t *testing.T) {
	geoms := []struct{ table, tables, seg uint }{
		{10, 8, 8},  // registry geometry, h=64
		{9, 3, 7},   // h=21, odd everywhere
		{8, 5, 13},  // h=65: two history words, one live top bit
		{7, 11, 11}, // h=121, odd top
	}
	tr := ckptTrace(30000)
	for _, g := range geoms {
		for _, cut := range []int{0, 1, 12345, len(tr)} {
			live := NewPerceptron(g.table, g.tables, g.seg)
			run(live, tr[:cut])
			blob := live.MarshalState()

			revived := NewPerceptron(g.table, g.tables, g.seg)
			run(revived, tr[:100]) // stale training the restore must erase
			if err := revived.RestoreState(blob); err != nil {
				t.Fatalf("t%d/n%d/s%d cut %d: restore: %v", g.table, g.tables, g.seg, cut, err)
			}
			if got := revived.MarshalState(); string(got) != string(blob) {
				t.Fatalf("t%d/n%d/s%d cut %d: restored state re-serializes differently", g.table, g.tables, g.seg, cut)
			}
			for i, r := range tr[cut:] {
				if live.Predict(r) != revived.Predict(r) || live.AnnotationState(r) != revived.AnnotationState(r) {
					t.Fatalf("t%d/n%d/s%d cut %d: branch %d diverged", g.table, g.tables, g.seg, cut, cut+i)
				}
				live.Update(r)
				revived.Update(r)
			}
		}
	}
}

// TestPerceptronCheckpointRejects: structural mismatches fail restore
// before any mutation.
func TestPerceptronCheckpointRejects(t *testing.T) {
	p := NewPerceptron(8, 5, 13) // h=65: exercises the top-bit window check
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
	reject("table count drift", mut(2, 2), "geometry")
	reject("segment drift", mut(3, 9), "geometry")
	reject("truncated", blob[:3], "truncated")
	reject("short body", blob[:len(blob)-1], "bytes")
	reject("trailing bytes", append(append([]byte(nil), blob...), 0), "bytes")
	// Second history word may only use its low bit (h=65).
	reject("history window", mut(4+8+1, 0x80), "window")
	if err := p.RestoreState(blob); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
}

func TestPerceptronGeometryPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"table bits zero": func() { NewPerceptron(0, 4, 4) },
		"tables zero":     func() { NewPerceptron(8, 0, 4) },
		"tables over 64":  func() { NewPerceptron(8, 65, 4) },
		"segment zero":    func() { NewPerceptron(8, 4, 0) },
		"segment over 64": func() { NewPerceptron(8, 4, 65) },
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
