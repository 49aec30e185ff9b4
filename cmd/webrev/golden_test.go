package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/build-n20-seed1")

// TestGeneratedBuildGolden pins two files of the repository `webrev build
// -n 20 -seed 1 -shards 2` writes: the derived DTD and the store index,
// which names every document with its SHA-256 and extent. The path from
// the résumé generator through the sharded build then has a byte contract,
// as the 12-document corpus of TestGoldenBuild has. Run with -update to
// regenerate after an intended change.
func TestGeneratedBuildGolden(t *testing.T) {
	work := t.TempDir()
	if err := cmdBuild([]string{"-n", "20", "-seed", "1", "-shards", "2", "-dir", work}, io.Discard); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "build-n20-seed1")
	for _, name := range []string{"schema.dtd", "index.log"} {
		got, err := os.ReadFile(filepath.Join(work, "final", name))
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join(dir, name)
		if *update {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden file (run `go test -run TestGeneratedBuildGolden -update ./cmd/webrev`): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("final/%s differs from %s; if the change is intended, rerun with -update\ngot:\n%s", name, golden, got)
		}
	}
}
