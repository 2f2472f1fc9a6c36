package bench

import "math/rand"

// Budgets: branches simulated per benchmark. The harness passes them to
// paperrepro and the layers binary uses them for its traced ops, so both
// always make the same op.
const (
	// ReportBranches sizes report-cold, report-warm and serve-figures:
	// small enough that a run holds about ten cold reports.
	ReportBranches = 50000
	// StreamBranches is above the 8 Mi-branch materialization ceiling, so
	// longhorizon streams in automatic 1 Mi-branch segments.
	StreamBranches = 9 << 20
)

// FigureIDs are the paper figures serve-figures requests, one id per
// request.
var FigureIDs = []string{"fig2", "fig5", "fig6", "fig7", "fig8", "table1", "fig9", "fig10", "fig11"}

// TracedRounds is how many rounds of the nine figures the traced run's
// servers answer, one request at a time, after warming up.
const TracedRounds = 5

// FigureOrder is the seeded order serve-figures clients walk the figures in.
func FigureOrder(seed int64) []string {
	order := append([]string(nil), FigureIDs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}
