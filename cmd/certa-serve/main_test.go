package main

import (
	"os"
	"path/filepath"
	"testing"

	"certa"
)

// TestWriteSnapshotReplacesFile writes a snapshot over an older file:
// the file at the path restores the new store's scores, and the aside
// file is gone.
func TestWriteSnapshotReplacesFile(t *testing.T) {
	schema, err := certa.NewSchema("S", "a")
	if err != nil {
		t.Fatal(err)
	}
	model := certa.MatcherFunc("len", func(p certa.Pair) float64 { return float64(len(p.Left.Values[0])) / 10 })
	svc := certa.NewScoringService(model, certa.ScoringServiceOptions{})
	for _, v := range []string{"a", "bb", "ccc"} {
		r, err := certa.NewRecord("r", schema, v)
		if err != nil {
			t.Fatal(err)
		}
		svc.Score(certa.Pair{Left: r, Right: r})
	}

	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := os.WriteFile(path, []byte("an older snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(svc, path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("aside file left behind (stat: %v)", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored := certa.NewScoringService(model, certa.ScoringServiceOptions{})
	if n, err := restored.Restore(f); err != nil || n != 3 {
		t.Fatalf("restored %d scores (%v), want 3", n, err)
	}
}
