package analysis

// TableRow is one row of the paper's Table 1: statistics for a single
// counter value of a resetting- (or saturating-) counter confidence table.
// Rows run from count 0 (most recently mispredicted, lowest confidence) to
// the saturation ceiling; cumulative columns accumulate from count 0 down,
// matching the table's "from the top" convention.
type TableRow struct {
	Count        int     // counter value
	MissRate     float64 // misprediction rate at this counter value
	RefsPct      float64 // percent of dynamic branches seeing this value
	MissesPct    float64 // percent of mispredictions at this value
	CumRefsPct   float64 // cumulative percent of branches, counts 0..Count
	CumMissesPct float64 // cumulative percent of mispredictions
}

// CounterRows builds Table 1 from a composite of counter-valued bucket
// statistics with values in [0, max]. Buckets outside the range are
// ignored (there are none for a well-formed counter mechanism).
func CounterRows(ws WeightedStats, max int) []TableRow {
	totalE, totalM := ws.Totals()
	rows := make([]TableRow, max+1)
	var cumE, cumM float64
	next := 0 // ws's first key not below the current counter value
	for v := 0; v <= max; v++ {
		k := Key{Bucket: uint64(v)}
		for next < len(ws) && ws[next].Key.compare(k) < 0 {
			next++
		}
		var t WTally
		if next < len(ws) && ws[next].Key == k {
			t = ws[next].WTally
		}
		cumE += t.Events
		cumM += t.Misses
		row := TableRow{Count: v, MissRate: t.Rate()}
		if totalE > 0 {
			row.RefsPct = 100 * t.Events / totalE
			row.CumRefsPct = 100 * cumE / totalE
		}
		if totalM > 0 {
			row.MissesPct = 100 * t.Misses / totalM
			row.CumMissesPct = 100 * cumM / totalM
		}
		rows[v] = row
	}
	return rows
}

// FormatCounterTable renders rows in the layout of the paper's Table 1.
func FormatCounterTable(rows []TableRow) string {
	const header = "Count  Mis%pred.  %Refs  %Mispreds  Cum.%Refs  Cum.%Mispreds\n"
	b := make([]byte, 0, len(header)*(len(rows)+1))
	b = append(b, header...)
	for _, r := range rows {
		b = appendIntWidth(b, r.Count, 5)
		b = appendFixedWidth(append(b, "  "...), 100*r.MissRate, 3, 9)
		b = appendFixedWidth(append(b, "  "...), r.RefsPct, 2, 5)
		b = appendFixedWidth(append(b, "  "...), r.MissesPct, 2, 9)
		b = appendFixedWidth(append(b, "  "...), r.CumRefsPct, 2, 9)
		b = appendFixedWidth(append(b, "  "...), r.CumMissesPct, 1, 13)
		b = append(b, '\n')
	}
	return string(b)
}

// Series is a named curve, the unit figures are assembled from.
type Series struct {
	Label string
	Curve Curve
}

// FormatFigure renders a set of series as aligned reference points — the
// textual equivalent of one of the paper's figures. The xs are cumulative
// dynamic-branch percentages; each cell is the percentage of mispredictions
// captured there.
func FormatFigure(title string, series []Series, xs []float64) string {
	b := make([]byte, 0, (len(series)+2)*(34+8*len(xs)+1)+len(title))
	b = append(b, title...)
	b = appendPadRight(append(b, '\n'), "series \\ %branches", 34)
	for _, x := range xs {
		b = appendFixedWidth(b, x, 0, 8)
	}
	b = append(b, '\n')
	for _, s := range series {
		b = appendPadRight(b, s.Label, 34)
		for _, x := range xs {
			b = appendFixedWidth(b, s.Curve.MispredsAt(x), 1, 8)
		}
		b = append(b, '\n')
	}
	return string(b)
}
