package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"adhocrace/internal/detect"
	"adhocrace/internal/harness"
)

// The committed expectations: the byte-exact `tables` output and the
// report fingerprints of every (model, preset, scheduler seed) the parsec
// workload can draw and every longtrace seed. Regenerate them with
// `go run . -regen testdata` from this directory (the tables output with
// the built tables CLI: `tables > testdata/tables.golden`) and review the
// diff — a changed fingerprint is a changed report.

//go:embed testdata/tables.golden testdata/fingerprints.json
var goldenFS embed.FS

// fingerprint hashes a report's harness.ReportFingerprint.
func fingerprint(rep *detect.Report) string {
	sum := sha256.Sum256([]byte(harness.ReportFingerprint(rep)))
	return hex.EncodeToString(sum[:])
}

// goldenFingerprints returns the committed fingerprint table.
func goldenFingerprints() (map[string]string, error) {
	data, err := goldenFS.ReadFile("testdata/fingerprints.json")
	if err != nil {
		return nil, err
	}
	m := make(map[string]string)
	return m, json.Unmarshal(data, &m)
}

// goldenTables returns the committed `tables` output.
func goldenTables() ([]byte, error) { return goldenFS.ReadFile("testdata/tables.golden") }

// checkGolden compares a fingerprint against the committed table.
func checkGolden(res *result, golden map[string]string, key, got string) {
	want, ok := golden[key]
	if !ok {
		res.mismatch("%s: no committed fingerprint", key)
		return
	}
	res.check(key, got, want)
}

// regen recomputes every committed fingerprint into dir/fingerprints.json.
func regen(dir string) error {
	out := make(map[string]string)
	if err := parsecGoldens(out); err != nil {
		return err
	}
	if err := longTraceGoldens(out); err != nil {
		return err
	}
	data, err := json.MarshalIndent(out, "", "  ") // keys sorted
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "fingerprints.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d fingerprints to %s\n", len(out), path)
	return nil
}
