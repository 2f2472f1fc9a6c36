package predictor

import (
	"fmt"

	"branchconf/internal/bitvec"
	"branchconf/internal/trace"
)

func init() {
	Register("tournament-64K", func() Predictor {
		return NewTournament(NewBimodal(14), NewGshare(14, 14), 14)
	})
}

// Tournament is McFarling's combining predictor: two component predictors
// and a chooser table of 2-bit counters indexed by PC. The chooser trains
// toward whichever component was correct when they disagree. The paper's
// hybrid-selector application (§1, application 3) replaces this ad hoc
// chooser with an explicit confidence comparison; see internal/apps.
type Tournament struct {
	a, b    Predictor
	chooser []bitvec.SatCounter
	bits    uint
}

// NewTournament combines predictors a and b with a 2^bits-entry chooser.
// Chooser state >= 2 selects b.
func NewTournament(a, b Predictor, bits uint) *Tournament {
	if bits == 0 || bits > 24 {
		panic(fmt.Sprintf("predictor: tournament chooser bits %d out of range [1,24]", bits))
	}
	t := &Tournament{a: a, b: b, chooser: make([]bitvec.SatCounter, 1<<bits), bits: bits}
	t.resetChooser()
	return t
}

func (t *Tournament) resetChooser() {
	for i := range t.chooser {
		t.chooser[i] = bitvec.TwoBit(bitvec.WeaklyTaken) // weakly prefer b
	}
}

// Components returns the two combined predictors (a, b).
func (t *Tournament) Components() (Predictor, Predictor) { return t.a, t.b }

// Predict selects between the component predictions using the chooser.
func (t *Tournament) Predict(r trace.Record) bool {
	if t.chooser[bitvec.PCIndexBits(r.PC, t.bits)].PredictTaken() {
		return t.b.Predict(r)
	}
	return t.a.Predict(r)
}

// Update trains both components and, when exactly one was correct, moves
// the chooser toward it.
func (t *Tournament) Update(r trace.Record) {
	pa := t.a.Predict(r) == r.Taken
	pb := t.b.Predict(r) == r.Taken
	i := bitvec.PCIndexBits(r.PC, t.bits)
	switch {
	case pb && !pa:
		t.chooser[i] = t.chooser[i].Inc()
	case pa && !pb:
		t.chooser[i] = t.chooser[i].Dec()
	}
	t.a.Update(r)
	t.b.Update(r)
}

// Reset restores both components and the chooser.
func (t *Tournament) Reset() {
	t.a.Reset()
	t.b.Reset()
	t.resetChooser()
}

// Name implements Predictor. Engine and artifact keys derive from it, so
// it names the chooser too: the chooser size appears as a suffix unless it
// matches the second component's table size, which keeps the names of the
// registry's and the hybrid study's tournaments.
func (t *Tournament) Name() string {
	name := fmt.Sprintf("tournament(%s,%s)", t.a.Name(), t.b.Name())
	if b, ok := t.b.(interface{ TableBits() uint }); ok && b.TableBits() == t.bits {
		return name
	}
	return fmt.Sprintf("%s-c%s", name, sizeName(t.bits))
}
