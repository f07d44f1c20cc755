package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpa"
)

// TestGoldens renders every pinned golden in-process and compares it
// byte for byte: the behavior digest of each registered model
// (DRIFT.txt, DRIFT.t4.txt, DRIFT.a100.txt), the work record (WORK.txt),
// and DRIFT.txt again through a fresh store directory, cold and then
// warm from disk, so the store path answers what the direct path does.
// The subtests run in order: the warm pass reads what the cold one
// stored.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every Table 3 row six times")
	}
	storeDir := t.TempDir()
	for _, c := range []struct {
		name, golden, arch, storeDir string
		work                         bool
	}{
		{"v100", "DRIFT.txt", "v100", "", false},
		{"t4", "DRIFT.t4.txt", "t4", "", false},
		{"a100", "DRIFT.a100.txt", "a100", "", false},
		{"work", "WORK.txt", "v100", "", true},
		{"store-cold", "DRIFT.txt", "v100", storeDir, false},
		{"store-warm", "DRIFT.txt", "v100", storeDir, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			gpu, err := gpa.LookupGPU(c.arch)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if c.work {
				err = runWork(context.Background(), &got, gpu)
			} else {
				err = run(context.Background(), &got, c.storeDir, gpu)
			}
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := range max(len(gotLines), len(wantLines)) {
				g, w := "(none)", "(none)"
				if i < len(gotLines) {
					g = gotLines[i]
				}
				if i < len(wantLines) {
					w = wantLines[i]
				}
				if g != w {
					t.Errorf("%s line %d:\n got %s\nwant %s", c.golden, i+1, g, w)
				}
			}
		})
	}
}
