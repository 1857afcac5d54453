package experiments

import (
	"context"
	"strings"
	"testing"
)

// TestLiveVsBatchEquivalenceColumn runs the live-vs-batch grid and checks
// its internal invariant held (the function errors out if a whole-horizon
// live run diverges from the batch cost) and that every live-capable
// strategy produced a row.
func TestLiveVsBatchEquivalenceColumn(t *testing.T) {
	cfg := DefaultLiveVsBatch()
	res, err := LiveVsBatch(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "ext-live-vs-batch" {
		t.Fatalf("id = %q", res.ID)
	}
	if got, want := len(res.Table.Rows), 8; got != want {
		t.Fatalf("%d strategy rows, want %d", got, want)
	}
	csv := res.Table.CSV()
	for _, strategy := range []string{"online", "offline", "dyadic", "batching", "hybrid", "unicast"} {
		if !strings.Contains(csv, strategy) {
			t.Errorf("missing strategy row %q", strategy)
		}
	}
}

// TestLiveVsBatchCanceled pins context propagation through the grid.
func TestLiveVsBatchCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := LiveVsBatch(ctx, DefaultLiveVsBatch()); err == nil {
		t.Fatal("canceled LiveVsBatch returned no error")
	}
}

// TestWarmReplanExperiment checks ext-live-vs-batch's replan columns:
// the off-line pair answers every epoch close from its resumable forest
// tables and reuses DP cells absorbed mid-epoch, every other epoch
// strategy re-runs its batch planner (no warm replans), and the online
// strategy never replans.  It runs the default, so the published table
// shows the reuse.
func TestWarmReplanExperiment(t *testing.T) {
	res, err := LiveVsBatch(context.Background(), DefaultLiveVsBatch())
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, h := range res.Table.Headers {
		col[h] = i
	}
	for _, h := range []string{"replans", "warm_replans", "cells_reused", "cells_recomputed"} {
		if _, ok := col[h]; !ok {
			t.Fatalf("ext-live-vs-batch has no %q column (headers %v)", h, res.Table.Headers)
		}
	}
	for _, row := range res.Table.Rows {
		strategy := row[col["strategy"]]
		replans := parseF(t, row[col["replans"]])
		warm := parseF(t, row[col["warm_replans"]])
		reused := parseF(t, row[col["cells_reused"]])
		switch strategy {
		case "offline", "offline-batched":
			if replans <= 0 || warm != replans {
				t.Errorf("%s: warm_replans %v, replans %v; want warm_replans == replans > 0", strategy, warm, replans)
			}
			if reused <= 0 {
				t.Errorf("%s: cells_reused %v, want > 0 (mid-epoch absorption never ran)", strategy, reused)
			}
		case "online":
			if replans != 0 || warm != 0 {
				t.Errorf("online: replans %v, warm_replans %v; want 0 and 0", replans, warm)
			}
		default:
			if replans <= 0 || warm != 0 {
				t.Errorf("%s: replans %v, warm_replans %v; want replans > 0 and no warm replans", strategy, replans, warm)
			}
		}
	}
}
