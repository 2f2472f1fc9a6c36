package sim

// LevelTally summarises one confidence level of a multi-level run.
type LevelTally struct {
	Branches uint64
	Misses   uint64
}

// Rate returns the level's misprediction rate.
func (l LevelTally) Rate() float64 {
	if l.Branches == 0 {
		return 0
	}
	return float64(l.Misses) / float64(l.Branches)
}

// MultiResult is the per-level outcome distribution of a multi-level
// estimator run. Levels[0] is the lowest confidence class.
type MultiResult struct {
	Benchmark string
	Levels    []LevelTally
}

// Branches returns the total classified predictions.
func (m MultiResult) Branches() uint64 {
	var n uint64
	for _, l := range m.Levels {
		n += l.Branches
	}
	return n
}

// Misses returns the total mispredictions.
func (m MultiResult) Misses() uint64 {
	var n uint64
	for _, l := range m.Levels {
		n += l.Misses
	}
	return n
}
