package analysis

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"testing"
)

// The map-based reference: the compositors, the bucket merge, the curve
// and table builders and the run digest computed over Go maps (bucket →
// tally, key → weighted tally), sorting or probing them at every step.
// FuzzHistogramMatchesMapReference holds the ordered-slice implementations
// to these bit for bit.

// refWeighted is the map form of a composite.
type refWeighted map[Key]*WTally

const refDenseLimit = 1 << 16

// refWeight is compositeWeight over the map form.
func refWeight(tm TallyMap) float64 {
	var events uint64
	for _, t := range tm {
		events += t.Events
	}
	if events == 0 {
		return 0
	}
	return 1 / float64(events)
}

func refCompositePooled(runs []TallyMap) refWeighted {
	ws := make(refWeighted)
	dense := make([]WTally, refDenseLimit)
	maxSmall := -1
	for _, tm := range runs {
		w := refWeight(tm)
		for b, t := range tm {
			if b < refDenseLimit {
				dense[b].Events += w * float64(t.Events)
				dense[b].Misses += w * float64(t.Misses)
				if int(b) > maxSmall {
					maxSmall = int(b)
				}
				continue
			}
			k := Key{Bucket: b}
			wt := ws[k]
			if wt == nil {
				wt = &WTally{}
				ws[k] = wt
			}
			wt.Events += w * float64(t.Events)
			wt.Misses += w * float64(t.Misses)
		}
	}
	for b := 0; b <= maxSmall; b++ {
		if dense[b].Events != 0 || dense[b].Misses != 0 {
			t := dense[b]
			ws[Key{Bucket: uint64(b)}] = &t
		}
	}
	return ws
}

func refCompositeDistinct(runs []TallyMap) refWeighted {
	ws := make(refWeighted)
	for i, tm := range runs {
		w := refWeight(tm)
		for b, t := range tm {
			ws[Key{Run: i, Bucket: b}] = &WTally{Events: w * float64(t.Events), Misses: w * float64(t.Misses)}
		}
	}
	return ws
}

func refSingle(tm TallyMap) refWeighted {
	ws := make(refWeighted)
	for b, t := range tm {
		ws[Key{Bucket: b}] = &WTally{Events: float64(t.Events), Misses: float64(t.Misses)}
	}
	return ws
}

// refSortedKeys returns the composite's keys in canonical order, the
// order every float accumulation over a map composite had to run in.
func refSortedKeys(ws refWeighted) []Key {
	keys := make([]Key, 0, len(ws))
	for k := range ws {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, Key.compare)
	return keys
}

func refMergeBuckets(ws refWeighted, fn func(uint64) uint64) refWeighted {
	out := make(refWeighted)
	for _, k := range refSortedKeys(ws) {
		t := ws[k]
		nk := Key{Run: k.Run, Bucket: fn(k.Bucket)}
		wt := out[nk]
		if wt == nil {
			wt = &WTally{}
			out[nk] = wt
		}
		wt.Events += t.Events
		wt.Misses += t.Misses
	}
	return out
}

func refTotals(ws refWeighted) (events, misses float64) {
	for _, k := range refSortedKeys(ws) {
		events += ws[k].Events
		misses += ws[k].Misses
	}
	return events, misses
}

func refBuildCurve(ws refWeighted) Curve {
	type entry struct {
		key  Key
		t    WTally
		rate float64
	}
	var entries []entry
	for k, t := range ws {
		if t.Events > 0 {
			entries = append(entries, entry{key: k, t: *t, rate: t.Rate()})
		}
	}
	if len(entries) == 0 {
		return nil
	}
	slices.SortFunc(entries, func(a, b entry) int { return a.key.compare(b.key) })
	var totalE, totalM float64
	for _, e := range entries {
		totalE += e.t.Events
		totalM += e.t.Misses
	}
	if totalE == 0 {
		return nil
	}
	// Worst bucket first; equal rates keep canonical order.
	slices.SortStableFunc(entries, func(a, b entry) int {
		ra, rb := math.Float64bits(a.rate), math.Float64bits(b.rate)
		switch {
		case ra > rb:
			return -1
		case ra < rb:
			return 1
		}
		return 0
	})
	curve := make(Curve, len(entries))
	var cumE, cumM float64
	for i, e := range entries {
		t := e.t
		cumE += t.Events
		cumM += t.Misses
		missesPct := 0.0
		if totalM > 0 {
			missesPct = 100 * t.Misses / totalM
		}
		cumMissesPct := 0.0
		if totalM > 0 {
			cumMissesPct = 100 * cumM / totalM
		}
		curve[i] = Point{
			Key:          e.key,
			Rate:         t.Rate(),
			EventsPct:    100 * t.Events / totalE,
			MissesPct:    missesPct,
			CumEventsPct: 100 * cumE / totalE,
			CumMissesPct: cumMissesPct,
		}
	}
	return curve
}

func refBuildCurveOrdered(ws refWeighted, order []Key) Curve {
	totalE, totalM := refTotals(ws)
	if totalE == 0 {
		return nil
	}
	seen := make(map[Key]bool, len(order))
	var keys []Key
	for _, k := range order {
		if t := ws[k]; t != nil && t.Events > 0 && !seen[k] {
			keys = append(keys, k)
			seen[k] = true
		}
	}
	for _, k := range refSortedKeys(ws) {
		if !seen[k] && ws[k].Events > 0 {
			keys = append(keys, k)
		}
	}
	curve := make(Curve, len(keys))
	var cumE, cumM float64
	for i, k := range keys {
		t := ws[k]
		cumE += t.Events
		cumM += t.Misses
		missesPct, cumMissesPct := 0.0, 0.0
		if totalM > 0 {
			missesPct = 100 * t.Misses / totalM
			cumMissesPct = 100 * cumM / totalM
		}
		curve[i] = Point{
			Key:          k,
			Rate:         t.Rate(),
			EventsPct:    100 * t.Events / totalE,
			MissesPct:    missesPct,
			CumEventsPct: 100 * cumE / totalE,
			CumMissesPct: cumMissesPct,
		}
	}
	return curve
}

func refCounterRows(ws refWeighted, max int) []TableRow {
	totalE, totalM := refTotals(ws)
	rows := make([]TableRow, max+1)
	var cumE, cumM float64
	for v := 0; v <= max; v++ {
		t := ws[Key{Bucket: uint64(v)}]
		if t == nil {
			t = &WTally{}
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

func refHashRun(tm TallyMap) [sha256.Size]byte {
	h := sha256.New()
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], uint64(len(tm)))
	h.Write(word[:])
	buckets := make([]uint64, 0, len(tm))
	for b := range tm {
		buckets = append(buckets, b)
	}
	slices.Sort(buckets)
	for _, b := range buckets {
		for _, x := range []uint64{b, tm[b].Events, tm[b].Misses} {
			binary.LittleEndian.PutUint64(word[:], x)
			h.Write(word[:])
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// fuzzBytes hands out a fuzz input's bytes, then zeros once it runs dry.
type fuzzBytes []byte

func (fb *fuzzBytes) next() byte {
	if len(*fb) == 0 {
		return 0
	}
	b := (*fb)[0]
	*fb = (*fb)[1:]
	return b
}

func (fb *fuzzBytes) word(n int) uint64 {
	var w uint64
	for i := 0; i < n; i++ {
		w = w<<8 | uint64(fb.next())
	}
	return w
}

// fuzzRuns draws up to nine runs: empty ones, ones with no misses, and
// buckets small, straddling 2^16 and far above it.
func fuzzRuns(fb *fuzzBytes) []TallyMap {
	runs := make([]TallyMap, fb.next()%10)
	for i := range runs {
		tm := TallyMap{}
		flags := fb.next()
		for n := int(fb.next() % 48); n > 0; n-- {
			var b uint64
			switch sel := fb.next(); sel % 5 {
			case 0:
				b = uint64(sel >> 3) // tiny: collides within and across runs
			case 1:
				b = fb.word(2) // below 2^16
			case 2:
				b = 1<<16 - 4 + uint64(sel>>3)%8 // either side of 2^16
			case 3:
				b = fb.word(8) // anywhere, mostly far above 2^16
			default:
				b = 1<<16 + fb.word(3)
			}
			events := 1 + uint64(fb.next()%200)
			misses := uint64(fb.next()) % (events + 1)
			if flags&1 != 0 {
				misses = 0
			}
			t := tm[b]
			if t == nil {
				t = &Tally{}
				tm[b] = t
			}
			t.Events += events
			t.Misses += misses
		}
		runs[i] = tm
	}
	return runs
}

// fuzzMerge picks a bucket merge: none, or one that collides buckets.
func fuzzMerge(sel byte) (string, func(uint64) uint64) {
	switch sel % 6 {
	case 1:
		return "popcount", func(b uint64) uint64 { return uint64(bits.OnesCount64(b)) }
	case 2:
		m := uint64(sel>>3) + 1
		return "mod", func(b uint64) uint64 { return b % m }
	case 3:
		s := uint(sel >> 3)
		return "shift", func(b uint64) uint64 { return b >> s }
	case 4:
		return "const", func(uint64) uint64 { return 7 }
	case 5:
		return "reverse", func(b uint64) uint64 { return ^b }
	}
	return "", nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePoint(a, b Point) bool {
	return a.Key == b.Key && sameBits(a.Rate, b.Rate) && sameBits(a.EventsPct, b.EventsPct) &&
		sameBits(a.MissesPct, b.MissesPct) && sameBits(a.CumEventsPct, b.CumEventsPct) &&
		sameBits(a.CumMissesPct, b.CumMissesPct)
}

func sameRow(a, b TableRow) bool {
	return a.Count == b.Count && sameBits(a.MissRate, b.MissRate) && sameBits(a.RefsPct, b.RefsPct) &&
		sameBits(a.MissesPct, b.MissesPct) && sameBits(a.CumRefsPct, b.CumRefsPct) &&
		sameBits(a.CumMissesPct, b.CumMissesPct)
}

func sameCurve(t *testing.T, what string, got, want Curve) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if !samePoint(got[i], want[i]) {
			t.Fatalf("%s: point %d is %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// FuzzHistogramMatchesMapReference: over drawn run sets, every composite
// mode and bucket merges that collide buckets, the ordered-slice
// histograms give bit-identical curve points, Table 1 rows and run
// digests to the map-based reference.
func FuzzHistogramMatchesMapReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 4, 0, 9, 9, 1, 3, 5, 0xff, 0xff, 7, 7, 2, 0x10, 40, 3})
	f.Add([]byte{9, 1, 20, 2, 0x08, 50, 10, 1, 0x12, 0x34, 9, 9, 3, 1, 2, 3, 4, 5, 6, 7, 8, 100, 1, 0, 0, 0, 12, 12, 2, 0x21, 1, 3, 5, 2})
	f.Add([]byte{5, 0, 30, 0, 5, 5, 5, 10, 10, 15, 15, 20, 20, 25, 25, 30, 30, 35, 35, 2, 0x81, 3, 2, 2, 33, 4, 1, 2, 5, 1, 1, 9, 3, 0x44, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fb := fuzzBytes(data)
		maps := fuzzRuns(&fb)
		runs := make([]BucketStats, len(maps))
		for i, tm := range maps {
			runs[i] = tm.Stats()
			if got, want := HashRun(runs[i]), refHashRun(tm); got != want {
				t.Fatalf("run %d: digest %x, reference %x", i, got, want)
			}
		}
		digests := make([][sha256.Size]byte, len(maps))
		for i, tm := range maps {
			digests[i] = refHashRun(tm)
		}
		if HashRuns(runs) != CombineRunHashes(digests) {
			t.Fatal("HashRuns differs from the combined reference digests")
		}

		var ws WeightedStats
		var ref refWeighted
		switch mode := fb.next() % 3; {
		case mode == 0:
			ws, ref = CompositePooled(runs), refCompositePooled(maps)
		case mode == 1:
			ws, ref = CompositeDistinct(runs), refCompositeDistinct(maps)
		case len(runs) > 0:
			ws, ref = Single(runs[0]), refSingle(maps[0])
		default:
			ws, ref = Single(nil), refSingle(TallyMap{})
		}
		if name, fn := fuzzMerge(fb.next()); fn != nil {
			ws, ref = ws.MergeBuckets(fn), refMergeBuckets(ref, fn)
			for i := 1; i < len(ws); i++ {
				if ws[i-1].Key.compare(ws[i].Key) >= 0 {
					t.Fatalf("%s merge: keys %v then %v", name, ws[i-1].Key, ws[i].Key)
				}
			}
		}
		curve := BuildCurve(ws)
		sameCurve(t, "curve", curve, refBuildCurve(ref))
		// A realistic curve along the reversed ranking, with a key the
		// composite lacks and a repeated one.
		order := slices.Clone(curve.Keys())
		slices.Reverse(order)
		order = append(order, Key{Run: 99, Bucket: 1})
		if len(order) > 1 {
			order = append(order, order[0])
		}
		sameCurve(t, "ordered curve", BuildCurveOrdered(ws, order), refBuildCurveOrdered(ref, order))
		max := int(fb.next() % 24)
		got, want := CounterRows(ws, max), refCounterRows(ref, max)
		for v := range want {
			if !sameRow(got[v], want[v]) {
				t.Fatalf("row %d is %+v, reference %+v", v, got[v], want[v])
			}
		}
	})
}
