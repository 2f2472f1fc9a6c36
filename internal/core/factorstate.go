package core

import (
	"encoding/binary"
	"fmt"

	"branchconf/internal/bitvec"
	"branchconf/internal/trace"
	"branchconf/internal/xrand"
)

// Resumable walks for the streaming engine. A Factorable mechanism's bucket
// sequence is a pure fold of the branch stream over its table state, so the
// fold can pause at any branch and resume later — all it needs is the walk
// state (tables plus the global BHR/GCIR windows) carried across the cut.
// FactorState captures exactly that state; the streaming engine
// (internal/sim) checkpoints it at segment boundaries so a later process
// can tally segment k+1 without replaying segments 0..k.
//
// The contract mirrors FillBucketLane's: feeding segments through
// FillBucketLaneResume with one state emits, in concatenation, exactly the
// lane and tallies a single FillBucketLane call over the whole stream
// would (pinned by TestFactorStateResumeMatchesWhole).

// FactorState is the resumable walk state of one Resumable mechanism. A
// state is bound to the geometry that created it; passing it to a different
// mechanism is a programming error. MarshalState serializes the state for a
// segment-boundary checkpoint; the owning mechanism's RestoreFactorState
// validates and revives it.
type FactorState interface {
	// MarshalState returns the canonical serialized state. Equal states
	// always serialize to equal bytes (the payload feeds content-addressed
	// checkpoint records).
	MarshalState() []byte
}

// Resumable extends Factorable with pause-and-resume walks. Every concrete
// Factorable in this package implements it; the interface exists so the
// streaming engine can degrade gracefully if one ever does not.
type Resumable interface {
	Factorable
	// NewFactorState returns the walk state FillBucketLane would start
	// from: freshly initialised tables (burning the same RNG draws, in the
	// same order) and zeroed histories.
	NewFactorState() FactorState
	// RestoreFactorState validates and revives a MarshalState payload. It
	// fails on any structural mismatch with the receiver's geometry —
	// lengths, entry ranges, history windows, trailing bytes — so a payload
	// either revives the exact serialized state or is rejected.
	RestoreFactorState(data []byte) (FactorState, error)
	// FillBucketLaneResume is FillBucketLane continuing from st: it replays
	// recs through st (mutating it in place), appending one bucket per
	// branch to lane (nil for a histogram-only walk) and fusing tallies
	// into counts exactly like FillBucketLane. st must come from the receiver's NewFactorState or
	// RestoreFactorState.
	FillBucketLaneResume(st FactorState, recs []trace.Record, miss []uint64, lane *bitvec.Dense, counts []uint32)
}

// State serialization. Each state kind has a one-byte tag, fixed-width
// little-endian table entries, and the two history windows; decoders
// validate every field against the owning mechanism's geometry and reject
// trailing bytes, so corrupt or mismatched checkpoints fail closed.
const (
	stateTagOneLevel = 0x11
	stateTagTwoLevel = 0x12
	stateTagCounter  = 0x13
)

// appendTable appends a length-prefixed table of fixed-width entries.
func appendTable[T tableWord](out []byte, table []T) []byte {
	out = binary.LittleEndian.AppendUint64(out, uint64(len(table)))
	switch any(table).(type) {
	case []uint16:
		out = append(out, 2)
		for _, v := range table {
			out = binary.LittleEndian.AppendUint16(out, uint16(v))
		}
	default:
		out = append(out, 8)
		for _, v := range table {
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
	}
	return out
}

// readTable consumes a length-prefixed table, validating the entry width,
// the expected length, and that every entry fits in width bits.
func readTable[T tableWord](rd []byte, wantLen int, width uint, what string) ([]T, []byte, error) {
	if len(rd) < 9 {
		return nil, nil, fmt.Errorf("core: factor state truncated before %s header", what)
	}
	count := binary.LittleEndian.Uint64(rd)
	elem := rd[8]
	rd = rd[9:]
	var wantElem byte = 8
	if _, is16 := any([]T(nil)).([]uint16); is16 {
		wantElem = 2
	}
	if elem != wantElem {
		return nil, nil, fmt.Errorf("core: factor state %s entry width %d, want %d", what, elem, wantElem)
	}
	if count != uint64(wantLen) {
		return nil, nil, fmt.Errorf("core: factor state %s has %d entries, want %d", what, count, wantLen)
	}
	need := int(count) * int(wantElem)
	if len(rd) < need {
		return nil, nil, fmt.Errorf("core: factor state %s truncated (%d of %d bytes)", what, len(rd), need)
	}
	mask := widthMask(width)
	table := make([]T, count)
	for i := range table {
		var v uint64
		if wantElem == 2 {
			v = uint64(binary.LittleEndian.Uint16(rd[2*i:]))
		} else {
			v = binary.LittleEndian.Uint64(rd[8*i:])
		}
		if v&^mask != 0 {
			return nil, nil, fmt.Errorf("core: factor state %s entry %d = %#x exceeds %d-bit width", what, i, v, width)
		}
		table[i] = T(v)
	}
	return table, rd[need:], nil
}

// readHistories consumes the trailing (bhr, gcir) pair, validating both
// against their window masks and rejecting trailing bytes.
func readHistories(rd []byte, bhrMask, gcirMask uint64) (bhr, gcir uint64, err error) {
	if len(rd) != 16 {
		return 0, 0, fmt.Errorf("core: factor state has %d bytes at histories, want 16", len(rd))
	}
	bhr = binary.LittleEndian.Uint64(rd)
	gcir = binary.LittleEndian.Uint64(rd[8:])
	if bhr&^bhrMask != 0 {
		return 0, 0, fmt.Errorf("core: factor state BHR %#x exceeds its window", bhr)
	}
	if gcir&^gcirMask != 0 {
		return 0, 0, fmt.Errorf("core: factor state GCIR %#x exceeds its window", gcir)
	}
	return bhr, gcir, nil
}

func appendHistories(out []byte, bhr, gcir uint64) []byte {
	out = binary.LittleEndian.AppendUint64(out, bhr)
	return binary.LittleEndian.AppendUint64(out, gcir)
}

// checkTag consumes and validates the leading state tag.
func checkTag(data []byte, want byte, what string) ([]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty %s factor state", what)
	}
	if data[0] != want {
		return nil, fmt.Errorf("core: %s factor state tag %#x, want %#x", what, data[0], want)
	}
	return data[1:], nil
}

// oneLevelState is the OneLevel walk state, monomorphized per table element
// width like the kernel itself.
type oneLevelState[T tableWord] struct {
	table     []T
	bhr, gcir uint64
}

func (s *oneLevelState[T]) MarshalState() []byte {
	out := make([]byte, 0, 1+9+len(s.table)*8+16)
	out = append(out, stateTagOneLevel)
	out = appendTable(out, s.table)
	return appendHistories(out, s.bhr, s.gcir)
}

// NewFactorState implements Resumable: the initial table (same RNG stream
// as FillBucketLane) with zeroed histories.
func (m *OneLevel) NewFactorState() FactorState {
	rng := xrand.New(m.initSeed ^ 0xC12_5EED)
	if m.cirBits <= 16 {
		table := make([]uint16, 1<<m.tableBits)
		initTable(table, m.init, m.cirBits, rng)
		return &oneLevelState[uint16]{table: table}
	}
	table := make([]uint64, 1<<m.tableBits)
	initTable(table, m.init, m.cirBits, rng)
	return &oneLevelState[uint64]{table: table}
}

// RestoreFactorState implements Resumable.
func (m *OneLevel) RestoreFactorState(data []byte) (FactorState, error) {
	rd, err := checkTag(data, stateTagOneLevel, "one-level")
	if err != nil {
		return nil, err
	}
	if m.cirBits <= 16 {
		table, rest, err := readTable[uint16](rd, 1<<m.tableBits, m.cirBits, "CIR table")
		if err != nil {
			return nil, err
		}
		bhr, gcir, err := readHistories(rest, widthMask(m.bhr.Width()), widthMask(m.gcir.Width()))
		if err != nil {
			return nil, err
		}
		return &oneLevelState[uint16]{table: table, bhr: bhr, gcir: gcir}, nil
	}
	table, rest, err := readTable[uint64](rd, 1<<m.tableBits, m.cirBits, "CIR table")
	if err != nil {
		return nil, err
	}
	bhr, gcir, err := readHistories(rest, widthMask(m.bhr.Width()), widthMask(m.gcir.Width()))
	if err != nil {
		return nil, err
	}
	return &oneLevelState[uint64]{table: table, bhr: bhr, gcir: gcir}, nil
}

// FillBucketLaneResume implements Resumable.
func (m *OneLevel) FillBucketLaneResume(st FactorState, recs []trace.Record, miss []uint64, lane *bitvec.Dense, counts []uint32) {
	switch s := st.(type) {
	case *oneLevelState[uint16]:
		fillOneLevel(m, s, recs, miss, lane, counts)
	case *oneLevelState[uint64]:
		fillOneLevel(m, s, recs, miss, lane, counts)
	default:
		panic(fmt.Sprintf("core: foreign factor state %T for one-level mechanism", st))
	}
}

// twoLevelState is the TwoLevel walk state.
type twoLevelState[T tableWord] struct {
	t1, t2    []T
	bhr, gcir uint64
}

func (s *twoLevelState[T]) MarshalState() []byte {
	out := make([]byte, 0, 1+18+(len(s.t1)+len(s.t2))*8+16)
	out = append(out, stateTagTwoLevel)
	out = appendTable(out, s.t1)
	out = appendTable(out, s.t2)
	return appendHistories(out, s.bhr, s.gcir)
}

// NewFactorState implements Resumable, initialising both levels from one
// RNG stream in Reset order (first level, then second) exactly like
// FillBucketLane.
func (m *TwoLevel) NewFactorState() FactorState {
	rng := xrand.New(m.initSeed ^ 0x2C12_5EED)
	if m.l1CIRBits <= 16 && m.l2CIRBits <= 16 {
		s := &twoLevelState[uint16]{
			t1: make([]uint16, 1<<m.l1Bits),
			t2: make([]uint16, 1<<m.l1CIRBits),
		}
		initTable(s.t1, m.init, m.l1CIRBits, rng)
		initTable(s.t2, m.init, m.l2CIRBits, rng)
		return s
	}
	s := &twoLevelState[uint64]{
		t1: make([]uint64, 1<<m.l1Bits),
		t2: make([]uint64, 1<<m.l1CIRBits),
	}
	initTable(s.t1, m.init, m.l1CIRBits, rng)
	initTable(s.t2, m.init, m.l2CIRBits, rng)
	return s
}

// RestoreFactorState implements Resumable.
func (m *TwoLevel) RestoreFactorState(data []byte) (FactorState, error) {
	rd, err := checkTag(data, stateTagTwoLevel, "two-level")
	if err != nil {
		return nil, err
	}
	if m.l1CIRBits <= 16 && m.l2CIRBits <= 16 {
		t1, rest, err := readTable[uint16](rd, 1<<m.l1Bits, m.l1CIRBits, "first-level table")
		if err != nil {
			return nil, err
		}
		t2, rest, err := readTable[uint16](rest, 1<<m.l1CIRBits, m.l2CIRBits, "second-level table")
		if err != nil {
			return nil, err
		}
		bhr, gcir, err := readHistories(rest, widthMask(m.bhr.Width()), widthMask(m.gcir.Width()))
		if err != nil {
			return nil, err
		}
		return &twoLevelState[uint16]{t1: t1, t2: t2, bhr: bhr, gcir: gcir}, nil
	}
	t1, rest, err := readTable[uint64](rd, 1<<m.l1Bits, m.l1CIRBits, "first-level table")
	if err != nil {
		return nil, err
	}
	t2, rest, err := readTable[uint64](rest, 1<<m.l1CIRBits, m.l2CIRBits, "second-level table")
	if err != nil {
		return nil, err
	}
	bhr, gcir, err := readHistories(rest, widthMask(m.bhr.Width()), widthMask(m.gcir.Width()))
	if err != nil {
		return nil, err
	}
	return &twoLevelState[uint64]{t1: t1, t2: t2, bhr: bhr, gcir: gcir}, nil
}

// FillBucketLaneResume implements Resumable.
func (m *TwoLevel) FillBucketLaneResume(st FactorState, recs []trace.Record, miss []uint64, lane *bitvec.Dense, counts []uint32) {
	switch s := st.(type) {
	case *twoLevelState[uint16]:
		fillTwoLevel(m, s, recs, miss, lane, counts)
	case *twoLevelState[uint64]:
		fillTwoLevel(m, s, recs, miss, lane, counts)
	default:
		panic(fmt.Sprintf("core: foreign factor state %T for two-level mechanism", st))
	}
}

// counterState is the CounterTable walk state.
type counterState struct {
	table     []uint8
	bhr, gcir uint64
}

func (s *counterState) MarshalState() []byte {
	out := make([]byte, 0, 1+9+len(s.table)+16)
	out = append(out, stateTagCounter)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(s.table)))
	out = append(out, 1)
	out = append(out, s.table...)
	return appendHistories(out, s.bhr, s.gcir)
}

// NewFactorState implements Resumable.
func (m *CounterTable) NewFactorState() FactorState {
	table := make([]uint8, 1<<m.tableBits)
	if m.initVal != 0 {
		for i := range table {
			table[i] = m.initVal
		}
	}
	return &counterState{table: table}
}

// RestoreFactorState implements Resumable: counter entries must not exceed
// the saturation ceiling.
func (m *CounterTable) RestoreFactorState(data []byte) (FactorState, error) {
	rd, err := checkTag(data, stateTagCounter, "counter")
	if err != nil {
		return nil, err
	}
	if len(rd) < 9 {
		return nil, fmt.Errorf("core: factor state truncated before counter table header")
	}
	count := binary.LittleEndian.Uint64(rd)
	elem := rd[8]
	rd = rd[9:]
	if elem != 1 {
		return nil, fmt.Errorf("core: factor state counter entry width %d, want 1", elem)
	}
	if count != uint64(1)<<m.tableBits {
		return nil, fmt.Errorf("core: factor state counter table has %d entries, want %d", count, uint64(1)<<m.tableBits)
	}
	if uint64(len(rd)) < count {
		return nil, fmt.Errorf("core: factor state counter table truncated (%d of %d bytes)", len(rd), count)
	}
	table := make([]uint8, count)
	copy(table, rd[:count])
	for i, v := range table {
		if v > m.max {
			return nil, fmt.Errorf("core: factor state counter %d = %d exceeds ceiling %d", i, v, m.max)
		}
	}
	bhr, gcir, err := readHistories(rd[count:], widthMask(m.bhr.Width()), widthMask(m.gcir.Width()))
	if err != nil {
		return nil, err
	}
	return &counterState{table: table, bhr: bhr, gcir: gcir}, nil
}

// FillBucketLaneResume implements Resumable.
func (m *CounterTable) FillBucketLaneResume(st FactorState, recs []trace.Record, miss []uint64, lane *bitvec.Dense, counts []uint32) {
	s, ok := st.(*counterState)
	if !ok {
		panic(fmt.Sprintf("core: foreign factor state %T for counter mechanism", st))
	}
	if m.kind == Resetting {
		fillCounter[resettingStep](m, s, recs, miss, lane, counts)
		return
	}
	fillCounter[saturatingStep](m, s, recs, miss, lane, counts)
}
