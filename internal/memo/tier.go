package memo

import (
	"sync/atomic"

	"branchconf/internal/artifact"
)

// Tier is one memoized layer of the engine: an in-memory byteLRU in front
// of the default artifact store. GetMany (and Get, its one-key form) is
// the whole tier sequence — claim-or-wait in memory, read and decode the
// disk record, drop a record that fails to decode or is not accepted,
// build, publish to disk and to memory — so every tier runs the same code
// and keeps the same counters.
//
// The configuration fields are set once, in the declaration; a Tier must
// not be copied after first use.
type Tier[K comparable, V any] struct {
	// Name is the tier's row in the -cache-stats table.
	Name string
	// Kind is the artifact kind of the tier's store records; 0 keeps the
	// tier in memory only.
	Kind uint16
	// Key renders a memory key as its store key. Key, Encode and Decode
	// are needed only when Kind is non-zero.
	Key func(K) string
	// Encode and Decode are the store payload codec. Decode must fail,
	// never return a partial value, on a payload it cannot fully parse.
	Encode func(V) []byte
	Decode func([]byte) (V, error)
	// Size is a value's resident payload bytes, charged against the bound.
	// Only Get and GetMany need it: a tier used through Load and Save alone
	// has no memory.
	Size func(V) uint64
	// ShareWith, when set, is a sibling tier whose memory this tier uses
	// instead of its own: one resident-bytes bound and one LRU order over
	// both tiers' entries. Keys of the two tiers must be distinct types.
	ShareWith Budget

	own          byteLRU
	hits, misses atomic.Uint64
}

// Budget is a tier's memory: its entries and their resident-bytes bound.
type Budget interface{ lru() *byteLRU }

func (t *Tier[K, V]) lru() *byteLRU {
	if t.ShareWith != nil {
		return t.ShareWith.lru()
	}
	return &t.own
}

// Get returns key's value from memory, else from the store, else from
// build. Concurrent callers of one key share one load or build. A stored
// record is used only if it decodes and accept (nil accepts anything)
// approves the value; accept carries what the caller knows that the key
// does not, such as the length the value must cover. A rejected record is
// dropped from the store and rebuilt. A build error reaches every caller
// waiting on that build and is not cached: the next Get builds again.
func (t *Tier[K, V]) Get(key K, accept func(V) bool, build func() (V, error)) (V, error) {
	vs, err := t.GetMany([]K{key}, accept, func([]int) ([]V, error) {
		v, err := build()
		return []V{v}, err
	})
	if err != nil {
		var zero V
		return zero, err
	}
	return vs[0], nil
}

// GetMany is Get for several keys at once, returning their values
// index-aligned with keys. Keys another caller is loading or building are
// waited on. Of the keys this call claims, those the store cannot serve
// are built together by one call of build, which gets their indices in
// keys and returns their values in that order. The call finishes its own
// loads and build before it waits on another caller's, so callers claiming
// overlapping keys in any order never deadlock. A build error reaches
// every key that build was to fill and every caller waiting on one; the
// first error in key order is returned.
func (t *Tier[K, V]) GetMany(keys []K, accept func(V) bool, build func(missing []int) ([]V, error)) ([]V, error) {
	mem := t.lru()
	entries := make([]*entry, len(keys))
	owned := make([]bool, len(keys))
	var missing []int
	for i, k := range keys {
		e, owner := mem.claim(k)
		entries[i], owned[i] = e, owner
		if !owner {
			continue
		}
		t.misses.Add(1)
		if v, ok := t.Load(k, accept); ok {
			e.val = v
			mem.finish(e, t.Size(v))
		} else {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		vs, err := build(missing)
		for j, i := range missing {
			e := entries[i]
			if err != nil {
				e.err = err
				mem.finish(e, 0)
				continue
			}
			t.Save(keys[i], vs[j])
			e.val = vs[j]
			mem.finish(e, t.Size(vs[j]))
		}
	}
	out := make([]V, len(keys))
	for i, e := range entries {
		<-e.done
		if e.err != nil {
			return nil, e.err
		}
		if !owned[i] {
			t.hits.Add(1)
		}
		out[i], _ = e.val.(V)
	}
	return out, nil
}

// Load is the tier's disk half on its own: it reads key's record from the
// default store and decodes it. A record that fails to decode, or whose
// value accept rejects, is dropped from the store and reported missing,
// like a record that is not there. A memory-only tier, or a process with
// no store, never touches disk.
func (t *Tier[K, V]) Load(key K, accept func(V) bool) (v V, ok bool) {
	s := artifact.Default()
	if s == nil || t.Kind == 0 {
		return v, false
	}
	sk := t.Key(key)
	payload, found := s.Get(t.Kind, sk)
	if !found {
		return v, false
	}
	v, err := t.Decode(payload)
	if err != nil || (accept != nil && !accept(v)) {
		s.Drop(t.Kind, sk)
		var zero V
		return zero, false
	}
	return v, true
}

// Save publishes v under key to the default store, encoding it only when
// a store is configured. It is best effort: a failed write costs a later
// process a cold start, and retry and degradation are the store's, so the
// error is not returned.
func (t *Tier[K, V]) Save(key K, v V) {
	if s := artifact.Default(); s != nil && t.Kind != 0 {
		_ = s.Put(t.Kind, t.Key(key), t.Encode(v))
	}
}

// Stats returns the tier's counter quad. Hits count Gets served from
// memory, misses count Gets that loaded or built; evictions and resident
// bytes are the memory's, shared with any sibling tier.
func (t *Tier[K, V]) Stats() artifact.TierStats {
	r, e := t.lru().usage()
	return artifact.TierStats{Hits: t.hits.Load(), Misses: t.misses.Load(), Evictions: e, ResidentBytes: r}
}

// SetBound bounds the tier's resident payload bytes; 0 removes the bound.
func (t *Tier[K, V]) SetBound(bytes uint64) { t.lru().setBound(bytes) }

// Release drops every resident entry, keeping the counters and the bound.
func (t *Tier[K, V]) Release() { t.lru().reset() }

// Reset drops every resident entry and zeroes the counters, keeping the
// bound. Intended for tests and batch boundaries.
func (t *Tier[K, V]) Reset() {
	t.lru().reset()
	t.hits.Store(0)
	t.misses.Store(0)
}
