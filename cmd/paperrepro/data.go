package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"branchconf/internal/exp"
)

// writeData writes one experiment's artefact into dir for -data: the whole
// output as <id>.json, and each curve as <id>-<label>.dat of (cumulative
// %branches, cumulative %mispredictions) points for gnuplot. Both are
// thinned like the paper's plots to keep the files readable.
func writeData(dir string, out *exp.Output) error {
	err := writeFile(filepath.Join(dir, out.ID+".json"), func(w io.Writer) error { return out.WriteJSON(w, 0.1) })
	if err != nil {
		return err
	}
	for _, s := range out.Series {
		path := filepath.Join(dir, fmt.Sprintf("%s-%s.dat", out.ID, sanitize(s.Label)))
		if err := writeFile(path, s.Curve.Thin(0.5).WriteDat); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// sanitize maps a series label onto a file-name-safe string.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
