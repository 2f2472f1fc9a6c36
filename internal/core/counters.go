package core

import (
	"fmt"

	"branchconf/internal/bitvec"
	"branchconf/internal/trace"
)

// CounterKind selects the compressed table-entry representation of §5.1:
// full CIRs can be replaced in the CT by small counters at a logarithmic
// storage saving, with the counter value doubling as the reduction output.
type CounterKind int

const (
	// Saturating counts up on correct predictions and down on incorrect
	// ones, saturating at [0, Max].
	Saturating CounterKind = iota
	// Resetting counts up on correct predictions and resets to zero on any
	// incorrect one — the paper's recommended practical mechanism.
	Resetting
)

// String returns the kind's name as used in Figure 8's legend.
func (k CounterKind) String() string {
	switch k {
	case Saturating:
		return "Sat"
	case Resetting:
		return "Reset"
	default:
		return fmt.Sprintf("CounterKind(%d)", int(k))
	}
}

// CounterTable is a one-level confidence mechanism whose CT holds
// compressed counters instead of full CIRs. Bucket returns the counter
// value (0..Max), so per-bucket analysis yields exactly the paper's 17
// data points for Max == 16 (Table 1).
type CounterTable struct {
	kind      CounterKind
	scheme    IndexScheme
	tableBits uint
	max       uint8
	initVal   uint8
	table     []uint8
	bhr       bitvec.BHR
	gcir      bitvec.CIR

	// Index memo: valid from Bucket until the histories advance in Update.
	cachePC  uint64
	cacheIdx uint64
	cacheOK  bool

	// tableDirty defers the table fill to first use; see ensureTable.
	tableDirty bool
}

// CounterConfig configures a CounterTable. Zero geometry values select the
// paper's defaults: 2^16 entries, Max 16, initial value 0 (the counter
// analogue of all-ones CIRs — a counter of 0 means "misprediction just
// seen", i.e. low confidence). Kind and Scheme zero values are the valid
// choices Saturating and IndexPC; set them explicitly.
type CounterConfig struct {
	// Kind selects saturating or resetting counters.
	Kind CounterKind
	// Scheme selects the table index.
	Scheme IndexScheme
	// TableBits is log2 of the entry count (default 16).
	TableBits uint
	// Max is the saturation ceiling (default 16, aligning the counter's
	// 17 values with the ones-counts of a 16-bit CIR).
	Max uint8
	// Init is the initial counter value (default 0).
	Init uint8
	// HistoryBits is the global BHR length (default = TableBits).
	HistoryBits uint
}

// NewCounterTable returns a compressed-counter confidence mechanism. It
// panics on out-of-range geometry.
func NewCounterTable(cfg CounterConfig) *CounterTable {
	if cfg.TableBits == 0 {
		cfg.TableBits = 16
	}
	if cfg.Max == 0 {
		cfg.Max = 16
	}
	if cfg.HistoryBits == 0 {
		cfg.HistoryBits = cfg.TableBits
	}
	if cfg.TableBits > 30 {
		panic(fmt.Sprintf("core: counter table bits %d out of range [1,30]", cfg.TableBits))
	}
	if cfg.Init > cfg.Max {
		panic(fmt.Sprintf("core: counter init %d exceeds max %d", cfg.Init, cfg.Max))
	}
	m := &CounterTable{
		kind:      cfg.Kind,
		scheme:    cfg.Scheme,
		tableBits: cfg.TableBits,
		max:       cfg.Max,
		initVal:   cfg.Init,
		bhr:       bitvec.NewBHR(cfg.HistoryBits),
		gcir:      bitvec.NewCIR(cfg.HistoryBits),
	}
	m.Reset()
	return m
}

// PaperResetting returns the paper's recommended implementation: resetting
// counters 0..16 in a 2^16-entry table indexed by PC xor BHR (§5.1-5.2).
func PaperResetting() *CounterTable {
	return NewCounterTable(CounterConfig{Kind: Resetting, Scheme: IndexPCxorBHR})
}

// SmallResetting returns the §5.3 cost-study variant: a 2^bits-entry
// resetting-counter table indexed PCxorBHR with 12 history bits, matching
// the 4K gshare predictor it pairs with.
func SmallResetting(bits uint) *CounterTable {
	return NewCounterTable(CounterConfig{Kind: Resetting, Scheme: IndexPCxorBHR, TableBits: bits, HistoryBits: 12})
}

func (m *CounterTable) index(pc uint64) uint64 {
	if m.cacheOK && m.cachePC == pc {
		return m.cacheIdx
	}
	i := schemeIndex(m.scheme, m.tableBits, pc, m.bhr.Bits(), m.gcir.Bits())
	m.cachePC, m.cacheIdx, m.cacheOK = pc, i, true
	return i
}

// ensureTable materializes the counter table on first use after a Reset,
// as OneLevel's does: construction and Reset only mark it dirty, so a
// table built to name a spec or to key a stage-3 walk never allocates or
// fills its 2^tableBits counters.
func (m *CounterTable) ensureTable() {
	if !m.tableDirty {
		return
	}
	if m.table == nil {
		m.table = make([]uint8, 1<<m.tableBits)
	}
	for i := range m.table {
		m.table[i] = m.initVal
	}
	m.tableDirty = false
}

// Bucket returns the counter value read for this branch (0..Max).
func (m *CounterTable) Bucket(r trace.Record) uint64 {
	m.ensureTable()
	return uint64(m.table[m.index(r.PC)])
}

// BucketUpdate implements Fused: one index computation serves both the
// read and the train, with no memo traffic.
func (m *CounterTable) BucketUpdate(r trace.Record, incorrect bool) uint64 {
	m.ensureTable()
	i := schemeIndex(m.scheme, m.tableBits, r.PC, m.bhr.Bits(), m.gcir.Bits())
	v := m.table[i]
	b := uint64(v)
	switch m.kind {
	case Resetting:
		if incorrect {
			v = 0
		} else if v < m.max {
			v++
		}
	case Saturating:
		if incorrect {
			if v > 0 {
				v--
			}
		} else if v < m.max {
			v++
		}
	}
	m.table[i] = v
	m.bhr.Record(r.Taken)
	m.gcir.Record(incorrect)
	m.cacheOK = false
	return b
}

// Update trains the indexed counter and advances the histories.
func (m *CounterTable) Update(r trace.Record, incorrect bool) {
	m.ensureTable()
	i := m.index(r.PC)
	v := m.table[i]
	switch m.kind {
	case Resetting:
		if incorrect {
			v = 0
		} else if v < m.max {
			v++
		}
	case Saturating:
		if incorrect {
			if v > 0 {
				v--
			}
		} else if v < m.max {
			v++
		}
	}
	m.table[i] = v
	m.bhr.Record(r.Taken)
	m.gcir.Record(incorrect)
	m.cacheOK = false
}

// Reset restores counters to the initial value and clears histories. The
// table fill itself is deferred to the next access (ensureTable).
func (m *CounterTable) Reset() {
	m.tableDirty = true
	m.bhr.Set(0)
	m.gcir.Set(0)
	m.cacheOK = false
}

// Max returns the saturation ceiling (buckets are 0..Max).
func (m *CounterTable) Max() uint8 { return m.max }

// TableBits returns log2 of the table size.
func (m *CounterTable) TableBits() uint { return m.tableBits }

// Name implements Mechanism.
func (m *CounterTable) Name() string {
	return fmt.Sprintf("1lev-%s.%s%d-2^%d", m.scheme, m.kind, m.max, m.tableBits)
}
