// Package exp is the experiment registry: one runnable experiment per
// table and figure in the paper's evaluation, plus baseline measurements
// and ablations of the design choices DESIGN.md calls out. Each experiment
// regenerates the corresponding artefact as structured data (curves or
// table rows) and a textual rendering.
package exp

import (
	"fmt"
	"sort"

	"branchconf/internal/analysis"
)

// Config parameterises an experiment run.
type Config struct {
	// Branches is the per-benchmark dynamic branch budget; 0 uses each
	// benchmark's default (1M).
	Branches uint64
	// SegmentBranches, when non-zero, routes suite passes through the
	// segmented streaming engine: traces are walked in segments of this
	// many branches with bounded resident memory and checkpointed resume,
	// instead of being materialized whole. Results are byte-identical; the
	// switch exists for long-horizon runs no whole-trace buffer can hold.
	SegmentBranches uint64
	// TraceFile points the realtrace experiment at a recorded ChampSim
	// trace on disk (empty = the experiment reports how to record one).
	// The file's identity is content-addressed — artifacts and report
	// caches key on its digest and branch count, never on the path.
	TraceFile string
}

// Output is an experiment's regenerated artefact.
type Output struct {
	// ID and Title identify the paper artefact ("fig5", "table1", ...).
	ID, Title string
	// Series holds the figure's curves, one per plotted method.
	Series []analysis.Series
	// Rows holds Table 1-style rows when the artefact is a table.
	Rows []analysis.TableRow
	// Scalars holds named scalar results (misprediction rates etc.),
	// and Notes the paper's reference values for them.
	Scalars map[string]float64
	// Text is the rendered artefact.
	Text string
}

// Experiment regenerates one paper artefact.
type Experiment struct {
	// ID is the registry key ("fig2" ... "fig11", "table1", "baseline",
	// "ablation-*").
	ID string
	// Title describes the artefact.
	Title string
	// Paper summarises the paper's reported result for comparison.
	Paper string
	// Run executes the experiment against a session. Experiments declare
	// their (predictor, mechanism-set) needs through the session so
	// simulation passes are batched and shared; a session may be shared by
	// many experiments, concurrently.
	Run func(*Session) (*Output, error)
	// OptIn marks an experiment a default report run skips: it only
	// executes when a filter names it explicitly (the long-horizon sweep,
	// whose interesting budgets dwarf the default report's).
	OptIn bool
}

var registry = map[string]Experiment{}
var order []string

// register adds an experiment at package init.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("exp: duplicate experiment %q", e.ID))
	}
	registry[e.ID] = e
	order = append(order, e.ID)
}

// ByID returns the registered experiment.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("exp: unknown experiment %q (available: %v)", id, IDs())
	}
	return e, nil
}

// IDs returns all experiment IDs in registration order.
func IDs() []string {
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// All returns every experiment in registration order.
func All() []Experiment {
	out := make([]Experiment, 0, len(order))
	for _, id := range order {
		out = append(out, registry[id])
	}
	return out
}

// figureXs are the cumulative-branch percentages figures are tabulated at.
var figureXs = []float64{5, 10, 20, 30, 40, 60, 80}

// renderFigure builds the standard text form of a figure output.
func renderFigure(o *Output) {
	o.Text = analysis.FormatFigure(fmt.Sprintf("%s — %s", o.ID, o.Title), o.Series, figureXs)
}

// sortedScalarNames returns scalar keys in stable order for rendering.
func sortedScalarNames(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
