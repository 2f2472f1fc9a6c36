package predictor

import (
	"testing"

	"branchconf/internal/trace"
	"branchconf/internal/xrand"
)

// run feeds a trace through p with the predict-then-update contract and
// returns the number of correct predictions.
func run(p Predictor, tr trace.Trace) int {
	correct := 0
	for _, r := range tr {
		if p.Predict(r) == r.Taken {
			correct++
		}
		p.Update(r)
	}
	return correct
}

// repeat builds a trace of n iterations of the given direction pattern at a
// single branch PC.
func repeat(pc uint64, pattern []bool, n int) trace.Trace {
	tr := make(trace.Trace, 0, n*len(pattern))
	for i := 0; i < n; i++ {
		for _, taken := range pattern {
			tr = append(tr, trace.Record{PC: pc, Target: pc + 64, Taken: taken})
		}
	}
	return tr
}

func TestRegistryBuildsEverything(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("registry has only %d predictors: %v", len(names), names)
	}
	for _, n := range names {
		p, err := Build(n)
		if err != nil {
			t.Fatalf("Build(%q): %v", n, err)
		}
		// Exercise the full interface on a tiny trace.
		tr := repeat(0x1000, []bool{true, false, true}, 4)
		run(p, tr)
		p.Reset()
		if got := p.Name(); got == "" {
			t.Fatalf("predictor %q has empty Name", n)
		}
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := Build("no-such-predictor"); err == nil {
		t.Fatal("unknown name built successfully")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("gshare-64K", func() Predictor { return AlwaysTaken{} })
}

func TestAlwaysNeverTaken(t *testing.T) {
	r := trace.Record{PC: 4, Target: 8}
	if !(AlwaysTaken{}).Predict(r) {
		t.Fatal("AlwaysTaken predicted not-taken")
	}
	if (NeverTaken{}).Predict(r) {
		t.Fatal("NeverTaken predicted taken")
	}
	if (AlwaysTaken{}).Name() != "always-taken" || (NeverTaken{}).Name() != "never-taken" {
		t.Fatal("wrong names")
	}
}

func TestBTFN(t *testing.T) {
	if !(BTFN{}).Predict(trace.Record{PC: 100, Target: 50}) {
		t.Fatal("backward branch predicted not-taken")
	}
	if (BTFN{}).Predict(trace.Record{PC: 100, Target: 200}) {
		t.Fatal("forward branch predicted taken")
	}
}

func TestProfilePredictor(t *testing.T) {
	p := NewProfile()
	tr := trace.Trace{
		{PC: 0x10, Target: 0x40, Taken: true},
		{PC: 0x10, Target: 0x40, Taken: true},
		{PC: 0x10, Target: 0x40, Taken: false},
		{PC: 0x20, Target: 0x60, Taken: false},
	}
	if err := p.Train(tr.Source()); err != nil {
		t.Fatal(err)
	}
	if !p.Predict(trace.Record{PC: 0x10}) {
		t.Fatal("majority-taken branch predicted not-taken")
	}
	if p.Predict(trace.Record{PC: 0x20}) {
		t.Fatal("majority-not-taken branch predicted taken")
	}
	// Unseen branch falls back to BTFN.
	if !p.Predict(trace.Record{PC: 0x99, Target: 0x10}) {
		t.Fatal("unseen backward branch predicted not-taken")
	}
	// Frozen profile ignores further updates.
	for i := 0; i < 10; i++ {
		p.Update(trace.Record{PC: 0x10, Taken: false})
	}
	if !p.Predict(trace.Record{PC: 0x10}) {
		t.Fatal("frozen profile changed prediction")
	}
	p.Reset()
	if p.Predict(trace.Record{PC: 0x10, Target: 0x100}) {
		t.Fatal("reset profile kept old bias (forward unseen should be not-taken)")
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(10)
	tr := repeat(0x1000, []bool{true}, 100)
	correct := run(b, tr)
	// Initialised weakly-taken, so an always-taken branch is correct from
	// the first prediction.
	if correct != 100 {
		t.Fatalf("always-taken branch: %d/100 correct", correct)
	}
	b.Reset()
	tr = repeat(0x1000, []bool{false}, 100)
	correct = run(b, tr)
	// Two wrong predictions while the counter descends from weakly-taken.
	if correct < 98 {
		t.Fatalf("never-taken branch: %d/100 correct", correct)
	}
}

func TestBimodalHysteresisSurvivesGlitch(t *testing.T) {
	b := NewBimodal(10)
	// Saturate taken, inject one not-taken, next prediction must stay taken.
	for i := 0; i < 4; i++ {
		b.Update(trace.Record{PC: 0x40, Taken: true})
	}
	b.Update(trace.Record{PC: 0x40, Taken: false})
	if !b.Predict(trace.Record{PC: 0x40}) {
		t.Fatal("single glitch flipped saturated bimodal counter")
	}
}

func TestBimodalSeparatesPCs(t *testing.T) {
	b := NewBimodal(10)
	for i := 0; i < 10; i++ {
		b.Update(trace.Record{PC: 0x100, Taken: true})
		b.Update(trace.Record{PC: 0x104, Taken: false})
	}
	if !b.Predict(trace.Record{PC: 0x100}) || b.Predict(trace.Record{PC: 0x104}) {
		t.Fatal("adjacent branches aliased in bimodal table")
	}
}

func TestGshareLearnsAlternation(t *testing.T) {
	// A strict T,N,T,N pattern defeats bimodal but is perfectly separable
	// with >= 1 history bit.
	g := NewGshare(10, 4)
	tr := repeat(0x1000, []bool{true, false}, 200)
	correct := run(g, tr)
	if correct < 380 { // allow warmup losses
		t.Fatalf("gshare on alternation: %d/400 correct", correct)
	}
	b := NewBimodal(10)
	bc := run(b, tr)
	if bc > 300 {
		t.Fatalf("bimodal unexpectedly good on alternation: %d/400", bc)
	}
}

func TestGshareZeroHistoryEqualsBimodal(t *testing.T) {
	// Invariant from DESIGN.md: gshare with zero history bits is bimodal.
	g := NewGshare(8, 0)
	b := NewBimodal(8)
	rng := xrand.New(77)
	tr := make(trace.Trace, 5000)
	for i := range tr {
		pc := uint64(0x2000 + 4*rng.Intn(512))
		tr[i] = trace.Record{PC: pc, Target: pc + 32, Taken: rng.Bool(0.6)}
	}
	for _, r := range tr {
		if g.Predict(r) != b.Predict(r) {
			t.Fatalf("divergence at PC %x", r.PC)
		}
		g.Update(r)
		b.Update(r)
	}
}

func TestGshareHistoryExposed(t *testing.T) {
	g := NewGshare(10, 4)
	g.Update(trace.Record{PC: 0x10, Taken: true})
	g.Update(trace.Record{PC: 0x10, Taken: false})
	g.Update(trace.Record{PC: 0x10, Taken: true})
	if g.History() != 0b101 {
		t.Fatalf("History = %04b, want 101", g.History())
	}
}

func TestGshareResetClearsState(t *testing.T) {
	g := NewGshare(10, 8)
	tr := repeat(0x500, []bool{true, true, false}, 50)
	run(g, tr)
	g.Reset()
	if g.History() != 0 {
		t.Fatalf("history after reset = %x", g.History())
	}
	// First prediction after reset is weakly taken.
	if !g.Predict(trace.Record{PC: 0x500}) {
		t.Fatal("reset table did not predict weakly taken")
	}
}

func TestGsharePaperGeometries(t *testing.T) {
	big := Gshare64K().(*Gshare)
	if big.TableBits() != 16 || big.HistoryBits() != 16 {
		t.Fatalf("Gshare64K geometry %d/%d", big.TableBits(), big.HistoryBits())
	}
	if big.Name() != "gshare-64K" {
		t.Fatalf("name %q", big.Name())
	}
	small := Gshare4K().(*Gshare)
	if small.TableBits() != 12 || small.HistoryBits() != 12 {
		t.Fatalf("Gshare4K geometry %d/%d", small.TableBits(), small.HistoryBits())
	}
	if small.Name() != "gshare-4K" {
		t.Fatalf("name %q", small.Name())
	}
}

func TestGselectLearnsAlternation(t *testing.T) {
	g := NewGselect(10, 5, 5)
	tr := repeat(0x1000, []bool{true, false}, 200)
	if correct := run(g, tr); correct < 380 {
		t.Fatalf("gselect on alternation: %d/400 correct", correct)
	}
}

func TestGAgLearnsGlobalPattern(t *testing.T) {
	g := NewGAg(8)
	// Period-4 global pattern across two branches.
	tr := make(trace.Trace, 0, 400)
	for i := 0; i < 100; i++ {
		tr = append(tr,
			trace.Record{PC: 0x100, Taken: i%2 == 0},
			trace.Record{PC: 0x200, Taken: i%2 == 1},
		)
	}
	if correct := run(g, tr); correct < 180 {
		t.Fatalf("GAg on periodic global pattern: %d/200 correct", correct)
	}
}

func TestPAgLearnsPerBranchPattern(t *testing.T) {
	p := NewPAg(8, 8)
	// Two interleaved branches with opposite period-2 patterns: global
	// history alone confuses them less than per-address history.
	tr := make(trace.Trace, 0, 800)
	for i := 0; i < 200; i++ {
		tr = append(tr,
			trace.Record{PC: 0x100, Taken: i%2 == 0},
			trace.Record{PC: 0x200, Taken: i%3 == 0},
		)
	}
	if correct := run(p, tr); correct < 350 {
		t.Fatalf("PAg: %d/400 correct", correct)
	}
}

func TestPAsSeparatesSets(t *testing.T) {
	p := NewPAs(8, 6, 4)
	tr := make(trace.Trace, 0, 800)
	for i := 0; i < 200; i++ {
		tr = append(tr,
			trace.Record{PC: 0x100, Taken: i%2 == 0},
			trace.Record{PC: 0x104, Taken: i%2 == 1},
		)
	}
	if correct := run(p, tr); correct < 380 {
		t.Fatalf("PAs on anti-correlated branches: %d/400 correct", correct)
	}
}

func TestTournamentBeatsWorstComponent(t *testing.T) {
	mk := func() (*Tournament, Predictor, Predictor) {
		a := NewBimodal(10)
		b := NewGshare(10, 8)
		return NewTournament(a, b, 10), NewBimodal(10), NewGshare(10, 8)
	}
	tour, soloA, soloB := mk()
	rng := xrand.New(5)
	// Mixed workload: some strongly biased branches (bimodal-friendly) and
	// some alternating branches (gshare-friendly).
	tr := make(trace.Trace, 0, 20000)
	phase := 0
	for i := 0; i < 10000; i++ {
		pcBias := uint64(0x1000 + 4*uint64(rng.Intn(16)))
		tr = append(tr, trace.Record{PC: pcBias, Taken: rng.Bool(0.95)})
		pcAlt := uint64(0x8000 + 4*uint64(rng.Intn(4)))
		tr = append(tr, trace.Record{PC: pcAlt, Taken: phase%2 == 0})
		phase++
	}
	tc := run(tour, tr)
	ac := run(soloA, tr)
	bc := run(soloB, tr)
	worst := ac
	if bc < worst {
		worst = bc
	}
	if tc < worst {
		t.Fatalf("tournament (%d) below worst component (bimodal %d, gshare %d)", tc, ac, bc)
	}
}

func TestTournamentResetAndName(t *testing.T) {
	tour := NewTournament(NewBimodal(8), NewGshare(8, 8), 8)
	run(tour, repeat(0x100, []bool{true, false}, 20))
	tour.Reset()
	a, b := tour.Components()
	if a.Name() != "bimodal-256" || b.Name() != "gshare-256" {
		t.Fatalf("component names %q %q", a.Name(), b.Name())
	}
	if tour.Name() != "tournament(bimodal-256,gshare-256)" {
		t.Fatalf("name %q", tour.Name())
	}
}

// TestNamesCoverEveryParameter: engine and artifact keys derive from
// Name(), so distinct gshare and tournament configurations must get
// distinct names, while the names already in use stay unchanged.
func TestNamesCoverEveryParameter(t *testing.T) {
	keep := map[string]Predictor{
		"gshare-4K":                          NewGshare(12, 12),
		"gshare-64K":                         NewGshare(16, 16),
		"tournament(bimodal-4K,gshare-4K)":   NewTournament(NewBimodal(12), NewGshare(12, 12), 12),
		"tournament(bimodal-16K,gshare-16K)": NewTournament(NewBimodal(14), NewGshare(14, 14), 14),
	}
	for want, p := range keep {
		if p.Name() != want {
			t.Errorf("name %q, want %q unchanged", p.Name(), want)
		}
	}
	distinct := []Predictor{
		NewGshare(12, 12), NewGshare(12, 0), NewGshare(12, 8), NewGshare(12, 16),
		NewTournament(NewBimodal(12), NewGshare(12, 12), 12),
		NewTournament(NewBimodal(12), NewGshare(12, 12), 10),
		NewTournament(NewBimodal(12), NewGshare(12, 8), 12),
		NewTournament(NewBimodal(12), AlwaysTaken{}, 12),
		NewTournament(NewBimodal(12), AlwaysTaken{}, 10),
	}
	seen := map[string]int{}
	for i, p := range distinct {
		if j, dup := seen[p.Name()]; dup {
			t.Errorf("configurations %d and %d share the name %q", j, i, p.Name())
		}
		seen[p.Name()] = i
	}
}

func TestSizeName(t *testing.T) {
	for bits, want := range map[uint]string{8: "256", 10: "1K", 12: "4K", 16: "64K", 20: "1M"} {
		if got := sizeName(bits); got != want {
			t.Fatalf("sizeName(%d) = %q, want %q", bits, got, want)
		}
	}
}

func TestGeometryPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bimodal-0":      func() { NewBimodal(0) },
		"bimodal-31":     func() { NewBimodal(31) },
		"gshare-0":       func() { NewGshare(0, 8) },
		"gshare-hist-65": func() { NewGshare(10, 65) },
		"gag-0":          func() { NewGAg(0) },
		"pag-0":          func() { NewPAg(0, 8) },
		"pas-bad":        func() { NewPAs(8, 20, 20) },
		"tournament-0":   func() { NewTournament(AlwaysTaken{}, NeverTaken{}, 0) },
		"gselect-0":      func() { NewGselect(0, 4, 4) },
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
