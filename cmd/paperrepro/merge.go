package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"branchconf/internal/serve"
)

// mergeMain assembles shard partials into the final report. Two sources:
// positional partial files (each worker's -shard output), or -from-store,
// which fetches every shard's KindPartial artifact from the configured
// (possibly remote) store — the coordinator never re-runs an experiment
// either way.
func mergeMain(args []string, stdout, errW io.Writer) error {
	fs := flag.NewFlagSet("paperrepro merge", flag.ContinueOnError)
	fs.SetOutput(errW)
	out := fs.String("o", "", "write the merged report to this file instead of stdout")
	fromStore := fs.Bool("from-store", false, "fetch partials from the artifact store instead of reading partial files")
	shards := fs.Int("shards", 0, "with -from-store: the fan-out's shard count (fetches shards 0/n..n-1/n)")
	var (
		rf    requestFlags
		store storeConfig
	)
	rf.addFlags(fs)
	store.addFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *fromStore {
		if fs.NArg() > 0 {
			return fmt.Errorf("merge: -from-store conflicts with partial files %v: choose one source", fs.Args())
		}
		if *shards < 1 {
			return fmt.Errorf("merge: -from-store requires -shards: the store is probed per shard coordinate")
		}
		if store.dir == "" {
			return fmt.Errorf("merge: -from-store requires -artifact-dir: there is no store to fetch partials from")
		}
		// The workers' request, built exactly as theirs was: the
		// partials are keyed by it.
		req, err := rf.request(true)
		if err != nil {
			return err
		}
		st, release, err := store.open()
		if err != nil {
			return err
		}
		defer release()
		partials := make([]*serve.PartialReport, *shards)
		for i := range partials {
			sh := serve.Shard{Index: i, Count: *shards}
			p, ok := serve.FetchPartial(req, sh)
			if !ok {
				return fmt.Errorf("merge: no partial for shard %s in the artifact store (did that worker run with -artifact-dir and the same request flags?)", sh)
			}
			partials[i] = p
		}
		report, err := serve.MergeReport(req, partials)
		if err != nil {
			return err
		}
		if err := st.Err(); err != nil { // -artifact-strict: a store failure fails the merge
			return err
		}
		return writeOut(stdout, *out, report)
	}

	// File mode: the partials carry their request; the merge takes it from
	// the first and verifies the rest against its canonical key, and opens
	// no store. Request and store flags would be silently ignored, so
	// reject them explicitly.
	fromStoreOnly := flag.NewFlagSet("", flag.ContinueOnError)
	new(requestFlags).addFlags(fromStoreOnly)
	new(storeConfig).addFlags(fromStoreOnly)
	var misused []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "shards" || fromStoreOnly.Lookup(f.Name) != nil {
			misused = append(misused, "-"+f.Name)
		}
	})
	if len(misused) > 0 {
		return fmt.Errorf("merge: %s applies only with -from-store: file partials carry their request and need no store", strings.Join(misused, ", "))
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("merge: needs partial report files (or -from-store -shards n)")
	}
	var partials []*serve.PartialReport
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("merge: %w", err)
		}
		p, err := serve.DecodePartial(data)
		if err != nil {
			return fmt.Errorf("merge: %s: %w", path, err)
		}
		partials = append(partials, p)
	}
	report, err := serve.MergeReport(partials[0].Request, partials)
	if err != nil {
		return err
	}
	return writeOut(stdout, *out, report)
}

// writeOut writes the report to the -o file or stdout.
func writeOut(stdout io.Writer, path string, report []byte) error {
	if path == "" {
		_, err := stdout.Write(report)
		return err
	}
	return os.WriteFile(path, report, 0o644)
}
