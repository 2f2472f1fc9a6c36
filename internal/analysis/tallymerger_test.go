package analysis

import (
	"reflect"
	"testing"
)

// TestTallyMergerMatchesMonolithic: merging per-segment histograms at any
// segmentation must reproduce the monolithic statistics exactly.
func TestTallyMergerMatchesMonolithic(t *testing.T) {
	// A deterministic (bucket, incorrect) stream with hot and cold buckets.
	type ev struct {
		bucket    uint64
		incorrect bool
	}
	stream := make([]ev, 10000)
	for i := range stream {
		stream[i] = ev{bucket: uint64(i*i) % 37, incorrect: i%3 == 0}
	}
	wholeMap := TallyMap{}
	for _, e := range stream {
		wholeMap.Add(e.bucket, e.incorrect)
	}
	whole := wholeMap.Stats()
	for _, size := range []int{1, 997, 5000, len(stream), len(stream) + 1} {
		m := NewTallyMerger()
		for start := 0; start < len(stream); start += size {
			end := min(start+size, len(stream))
			seg := TallyMap{}
			for _, e := range stream[start:end] {
				seg.Add(e.bucket, e.incorrect)
			}
			m.Merge(seg.Stats())
		}
		if !reflect.DeepEqual(m.Stats(), whole) {
			t.Fatalf("size %d: merged stats diverge from monolithic", size)
		}
		e, miss := m.Totals()
		we, wm := whole.Totals()
		if e != we || miss != wm {
			t.Fatalf("size %d: totals (%d,%d), want (%d,%d)", size, e, miss, we, wm)
		}
	}
}

// TestTallyMergerLeavesInputIntact: merging must not retain or mutate the
// segment histogram — it may be a cached stream's shared read-only map.
func TestTallyMergerLeavesInputIntact(t *testing.T) {
	seg := BucketStats{{3, Tally{Events: 10, Misses: 4}}}
	m := NewTallyMerger()
	m.Merge(seg)
	m.Merge(seg)
	if got := seg[0]; got != (BucketTally{3, Tally{Events: 10, Misses: 4}}) {
		t.Fatalf("input mutated: %+v", got)
	}
	if got := m.Stats()[0]; got != (BucketTally{3, Tally{Events: 20, Misses: 8}}) {
		t.Fatalf("double merge: %+v", got)
	}
	if &m.Stats()[0] == &seg[0] {
		t.Fatal("merger aliases the input tally")
	}
}

// TestTallyMergerEmpty: a fresh merger reports empty, non-nil statistics.
func TestTallyMergerEmpty(t *testing.T) {
	m := NewTallyMerger()
	if s := m.Stats(); s == nil || len(s) != 0 {
		t.Fatalf("fresh merger stats = %v", s)
	}
}
