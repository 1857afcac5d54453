package serve_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/serve"
	"repro/internal/store"
)

// TestSnapshotFormatStable pins the snapshot format.  Each blob under
// testdata is one shard's forced Snapshot after the first half of
// crashTrace on crashConfig(strategy, 2, ...), saved by the build before
// each live scheduler encoded its own snapshot section.  Restoring the
// two blobs of a strategy and saving again with no admission in between
// must write both back byte for byte, so stores written by older builds
// of codecVersion 2 still restore.  It compares a restore and a re-save,
// not two live runs: the kept set and settle point a run saves follow the
// settler's timing.
func TestSnapshotFormatStable(t *testing.T) {
	for _, strategy := range serve.LivePlanners() {
		t.Run(strategy, func(t *testing.T) {
			mem := store.NewMem()
			want := make([][]byte, 2)
			for i := range want {
				blob, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("snapshot-%s-%d.bin", strategy, i)))
				if err != nil {
					t.Fatal(err)
				}
				if err := mem.SaveSnapshot(i, blob); err != nil {
					t.Fatal(err)
				}
				want[i] = blob
			}
			s, err := serve.New(crashConfig(strategy, len(want), mem, true))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer s.Close()
			if err := s.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			for i := range want {
				got, err := mem.LoadSnapshot(i)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("shard %d: re-saved snapshot (%d bytes) differs from testdata (%d bytes)", i, len(got), len(want[i]))
				}
			}
		})
	}
}
