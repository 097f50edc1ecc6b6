package main

import (
	"os"
	"path/filepath"
	"testing"

	"wiban/internal/obs"
)

// FuzzRecoverSidecar feeds newManager one arbitrary s000000.json, the
// daemon's restart input. Recovery must never panic: it either refuses
// the sidecar with an error or rebuilds books that checkBooks accepts —
// pending and running counts matching the statuses, the sidecar on disk
// matching the in-memory state, the gauges matching both. No runner is
// started, so the books are settled as soon as recovery returns.
func FuzzRecoverSidecar(f *testing.F) {
	for _, raw := range parentSidecars {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "s000000.json"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		m, err := newManager(dir, 1, reg, nil)
		if err != nil {
			return
		}
		checkBooks(t, m, reg, true)
	})
}
