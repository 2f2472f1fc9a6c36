package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"branchconf/internal/artifact"
	"branchconf/internal/exp"
	"branchconf/internal/memo"
)

// Sharded experiment fan-out. The (experiment, benchmark) unit matrix of a
// report is partitioned deterministically across worker processes: shard
// i of n owns the experiments at selection indices ≡ i (mod n), where the
// selection is the same registry-order list every entry point derives from
// the request. Each worker runs only its slice and emits a PartialReport —
// the rendered section text, scalars, and timings for its experiments —
// which travels either as a file or as a KindPartial artifact through the
// (possibly remote) content-addressed store. The coordinator merges
// partials in registry order through the same renderer BuildReport uses,
// so the merged report is byte-identical to the single-process report by
// construction: sections were already assembled position-wise there, and a
// shard changes where a section is computed, never what it contains.

// Shard names one worker's slice of the experiment selection: Index in
// [0, Count). The zero value (Count == 0) means "no sharding".
type Shard struct {
	Index, Count int
}

// ParseShard parses the CLI's "i/n" shard syntax, strictly: two bare
// decimal integers with 0 <= i < n, nothing else. Partial-report
// artifacts key on the shard's canonical rendering, so any spelling that
// does not round-trip through Shard.String() — "+0/2", "00/2", " 1/2" —
// is rejected outright: accepting it would let two spellings of the same
// shard miss each other in the store.
func ParseShard(s string) (Shard, error) {
	bad := func() (Shard, error) {
		return Shard{}, fmt.Errorf("shard must have the form \"i/n\" with 0 <= i < n, got %q", s)
	}
	idx, count, found := strings.Cut(s, "/")
	if !found {
		return bad()
	}
	i, err := strconv.Atoi(idx)
	if err != nil {
		return bad()
	}
	n, err := strconv.Atoi(count)
	if err != nil {
		return bad()
	}
	if n < 1 || i < 0 || i >= n {
		return bad()
	}
	sh := Shard{Index: i, Count: n}
	if sh.String() != s {
		return bad()
	}
	return sh, nil
}

// String renders the shard in its CLI form.
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// PartialFormatVersion is the partial-report codec version; it participates
// in the artifact key, so a codec change can never deserialize stale
// partials.
const PartialFormatVersion = 2

// PartialReport is one shard's share of a report: enough to merge without
// re-running anything, and enough to verify it belongs to the merge it is
// offered for (the canonical request key and the selection size travel
// with it).
type PartialReport struct {
	Format int `json:"format"`
	// Request is the full request the shard ran; merges verify every
	// partial shares the coordinator's canonical request key.
	Request ReportRequest `json:"request"`
	// Shard is the worker's "i/n" coordinates.
	Shard string `json:"shard"`
	// Experiments is the size of the full selection the shard was cut
	// from, a cheap consistency check against registry skew.
	Experiments int              `json:"experiments"`
	Sections    []PartialSection `json:"sections"`
}

// PartialSection is one experiment's rendered result.
type PartialSection struct {
	// Index is the experiment's position in the full selection.
	Index int `json:"index"`
	// ID is the experiment id at that position, verified on merge.
	ID      string             `json:"id"`
	Text    string             `json:"text"`
	Scalars map[string]float64 `json:"scalars,omitempty"`
	// Elapsed is the shard-measured wall time; zeroed for timing-free
	// requests so the partial's bytes are a pure function of the request.
	Elapsed float64 `json:"elapsed,omitempty"`
}

// Encode renders the partial as its canonical JSON bytes (scalar maps are
// key-sorted by the encoder, so equal partials encode equal bytes).
func (p *PartialReport) Encode() []byte {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		// Only unmarshalable values reach here, and the struct holds none.
		panic(fmt.Sprintf("serve: encoding partial report: %v", err))
	}
	return append(b, '\n')
}

// DecodePartial parses and version-checks one partial report.
func DecodePartial(data []byte) (*PartialReport, error) {
	var p PartialReport
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("decoding partial report: %w", err)
	}
	if p.Format != PartialFormatVersion {
		return nil, fmt.Errorf("partial report format %d, want %d", p.Format, PartialFormatVersion)
	}
	if _, err := ParseShard(p.Shard); err != nil {
		return nil, fmt.Errorf("partial report: %w", err)
	}
	return &p, nil
}

// shardIndices returns the selection indices shard owns, in order.
func shardIndices(sh Shard, selected int) []int {
	var idx []int
	for i := sh.Index; i < selected; i += sh.Count {
		idx = append(idx, i)
	}
	return idx
}

// BuildPartial runs shard's slice of the request's selection against the
// session and returns the shard's partial report. An empty slice — a
// filter that starves the shard — is an error, caught before any
// simulation runs.
func BuildPartial(session *exp.Session, req ReportRequest, opts BuildOptions, sh Shard) (*PartialReport, error) {
	if sh.Count < 1 || sh.Index < 0 || sh.Index >= sh.Count {
		return nil, fmt.Errorf("shard must have the form \"i/n\" with 0 <= i < n, got %q", sh)
	}
	filter, _, err := req.Validate()
	if err != nil {
		return nil, err
	}
	selected, err := SelectExperiments(filter, req.SkipAblations)
	if err != nil {
		return nil, err
	}
	indices := shardIndices(sh, len(selected))
	if len(indices) == 0 {
		return nil, fmt.Errorf("shard %s selects no experiments: only %d selected", sh, len(selected))
	}
	results := runSelected(session, selected, indices, opts)
	p := &PartialReport{
		Format:      PartialFormatVersion,
		Request:     req,
		Shard:       sh.String(),
		Experiments: len(selected),
	}
	for _, idx := range indices {
		r := results[idx]
		if r.err != nil {
			return nil, fmt.Errorf("%s: %w", selected[idx].ID, r.err)
		}
		sec := PartialSection{
			Index:   idx,
			ID:      selected[idx].ID,
			Text:    r.out.Text,
			Scalars: r.out.Scalars,
		}
		if !req.NoTimings {
			sec.Elapsed = r.elapsed
		}
		p.Sections = append(p.Sections, sec)
	}
	return p, nil
}

// MergeReport assembles partial reports into the final markdown, in
// registry order, through the renderer BuildReport uses. Every partial
// must have been built for the same canonical request, every selected
// experiment must be covered exactly once, and section ids must match the
// selection — version or filter skew between workers is an error, never a
// silently wrong report.
func MergeReport(req ReportRequest, partials []*PartialReport) ([]byte, error) {
	if len(partials) == 0 {
		return nil, fmt.Errorf("merge needs at least one partial report")
	}
	filter, _, err := req.Validate()
	if err != nil {
		return nil, err
	}
	selected, err := SelectExperiments(filter, req.SkipAblations)
	if err != nil {
		return nil, err
	}
	key := req.Key()
	results := make([]sectionResult, len(selected))
	owner := make([]string, len(selected))
	for _, p := range partials {
		if p.Format != PartialFormatVersion {
			return nil, fmt.Errorf("partial from shard %s has format %d, want %d", p.Shard, p.Format, PartialFormatVersion)
		}
		if got := p.Request.Key(); got != key {
			return nil, fmt.Errorf("partial from shard %s was built for a different request (%s, merging %s)", p.Shard, got, key)
		}
		if p.Experiments != len(selected) {
			return nil, fmt.Errorf("partial from shard %s selected %d experiments, this merge selects %d (registry skew?)", p.Shard, p.Experiments, len(selected))
		}
		for _, sec := range p.Sections {
			if sec.Index < 0 || sec.Index >= len(selected) {
				return nil, fmt.Errorf("partial from shard %s has out-of-range section index %d", p.Shard, sec.Index)
			}
			if selected[sec.Index].ID != sec.ID {
				return nil, fmt.Errorf("partial from shard %s names experiment %q at index %d, selection has %q", p.Shard, sec.ID, sec.Index, selected[sec.Index].ID)
			}
			if owner[sec.Index] != "" {
				return nil, fmt.Errorf("experiment %s covered by shards %s and %s: shard sets overlap", sec.ID, owner[sec.Index], p.Shard)
			}
			owner[sec.Index] = p.Shard
			results[sec.Index] = sectionResult{
				out:     &exp.Output{ID: sec.ID, Text: sec.Text, Scalars: sec.Scalars},
				elapsed: sec.Elapsed,
			}
		}
	}
	for i, o := range owner {
		if o == "" {
			return nil, fmt.Errorf("experiment %s (index %d) missing from the merged partials (%d partials offered)", selected[i].ID, i, len(partials))
		}
	}
	return renderReport(req, selected, results)
}

// partialArtifactKey is the canonical store key for one shard's partial.
func partialArtifactKey(req ReportRequest, sh Shard) string {
	return fmt.Sprintf("partial|fmt=%d|req{%s}|shard=%s", PartialFormatVersion, req.Key(), sh)
}

// partialTier carries partials through the artifact store (and so its
// remote tier) under their store keys. Only its disk half is used: a
// partial is published once and collected once.
var partialTier = &memo.Tier[string, *PartialReport]{
	Kind:   artifact.KindPartial,
	Key:    func(k string) string { return k },
	Encode: (*PartialReport).Encode,
	Decode: DecodePartial,
}

// PublishPartial stores the shard's partial in the default artifact store
// (and so, write-behind, in its remote tier), where a coordinator on any
// machine can collect it. Reports whether a store was configured; the Put
// itself is the store's usual best-effort contract.
func PublishPartial(p *PartialReport) bool {
	sh, err := ParseShard(p.Shard)
	if err != nil || artifact.Default() == nil {
		return false
	}
	partialTier.Save(partialArtifactKey(p.Request, sh), p)
	return true
}

// FetchPartial retrieves one shard's partial from the default artifact
// store (consulting the remote tier on a local miss). A stored partial
// that fails to decode or does not match its key is dropped fail-closed
// and reported as a miss, like any corrupt artifact.
func FetchPartial(req ReportRequest, sh Shard) (*PartialReport, bool) {
	return partialTier.Load(partialArtifactKey(req, sh), func(p *PartialReport) bool {
		return p.Shard == sh.String() && p.Request.Key() == req.Key()
	})
}
