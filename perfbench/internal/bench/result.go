package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"regexp"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// timingLine matches a report section's "_(ran in 1.2s)_" wall-time line
// and the blank line after it; removing both leaves exactly the bytes the
// same section has under -no-timings.
var timingLine = regexp.MustCompile(`(?m)^_\(ran in [^\n]*\)_\n\n`)

// StripTimings returns the report without its wall-time lines.
func StripTimings(report []byte) []byte { return timingLine.ReplaceAll(report, nil) }

// Digest returns the hex SHA-256 of b.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
