package repro

// Smoke tests for the cmd/ binaries: each main path is compiled and run
// with tiny flags so a CLI regression (flag rename, broken mode, panic on
// startup) is caught by `go test ./...` rather than by a user.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// buildCmd compiles cmd/<name> into the test's temp dir and returns the
// binary path.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/%s: %v\n%s", name, err, out)
	}
	return bin
}

func TestCommandSmoke(t *testing.T) {
	cases := []struct {
		cmd  string
		args []string
		want []string // substrings the output must contain
	}{
		{"modsim", []string{"-mode", "online", "-L", "15", "-n", "40"},
			[]string{"algorithm:            online", "playback stalls:      0"}},
		{"modsim", []string{"-mode", "offline", "-L", "15", "-n", "20"},
			[]string{"algorithm:            offline", "playback stalls:      0"}},
		{"modsim", []string{"-mode", "workload", "-objects", "2", "-delay", "10", "-lambda", "5",
			"-horizon", "2", "-poisson", "-seed", "7"},
			[]string{"server peak:", "playback stalls:      0"}},
		{"modsim", []string{"-mode", "compare", "-delay", "2", "-lambda", "4", "-horizon", "5", "-seed", "3"},
			[]string{"delay-guaranteed:", "offline optimum:"}},
		{"modexp", []string{"-list"},
			[]string{"fig11", "workload-sim"}},
		{"modtables", []string{"-max", "8"},
			[]string{"M(n)"}},
		{"modtables", []string{"-fullcost", "-L", "15", "-n", "8"},
			[]string{"Theorem 12", "full_cost"}},
		{"modtree", []string{"-n", "5", "-L", "8", "-diagram"},
			[]string{"optimal merge tree", "schedule verified"}},
		{"modserve", []string{"-mode", "bench", "-objects", "3", "-delay", "5", "-lambda", "2",
			"-horizon", "2", "-seed", "5", "-strategies", "online", "-workloads", "poisson", "-out", ""},
			[]string{"requests:", "server peak:", "throughput:", "replans:"}},
		{"modserve", []string{"-mode", "bench", "-objects", "3", "-delay", "5", "-lambda", "2",
			"-horizon", "2", "-seed", "5", "-strategies", "online,dyadic-batched,batching",
			"-workloads", "poisson,flash", "-shardgrid", "1,2", "-out", "@TMP@/BENCH_serve.json"},
			[]string{"strategy online", "strategy dyadic-batched", "strategy batching",
				"workload Poisson", "workload flash crowd", "BENCH_serve.json (4 cells, 3 strategies)"}},
		{"modserve", []string{"-mode", "smoke", "-objects", "3", "-delay", "5", "-lambda", "2", "-horizon", "2"},
			[]string{"served over HTTP", "metrics scrape ok", "smoke ok"}},
		{"modlint", []string{"-list"},
			[]string{"facadeonly", "shardloop", "ctxflow", "errwrap", "noalloc", "detrand"}},
		{"modlint", []string{"./mod/..."},
			[]string{}},
		{"modlint", []string{"-V=full"},
			[]string{"modlint version v1 buildID="}},
	}
	// Build each needed binary once, under the parent test so the temp dirs
	// outlive the subtests.
	bins := map[string]string{}
	for _, tc := range cases {
		if _, ok := bins[tc.cmd]; !ok {
			bins[tc.cmd] = buildCmd(t, tc.cmd)
		}
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.cmd+"_"+strings.Join(tc.args, "_"), func(t *testing.T) {
			// "@TMP@" in an argument is replaced with a per-test temp dir
			// (used by bench's -out so artifacts never land in the repo).
			args := make([]string, len(tc.args))
			var tmp string
			for i, a := range tc.args {
				if strings.Contains(a, "@TMP@") {
					if tmp == "" {
						tmp = t.TempDir()
					}
					a = strings.ReplaceAll(a, "@TMP@", tmp)
				}
				args[i] = a
			}
			out, err := exec.Command(bins[tc.cmd], args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%s %v: %v\n%s", tc.cmd, args, err, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("%s %v output missing %q:\n%s", tc.cmd, args, want, out)
				}
			}
			if tmp != "" {
				blob, err := os.ReadFile(filepath.Join(tmp, "BENCH_serve.json"))
				if err != nil {
					t.Fatalf("bench JSON missing: %v", err)
				}
				var parsed benchGridFile
				if err := json.Unmarshal(blob, &parsed); err != nil {
					t.Fatalf("bench JSON does not parse: %v\n%s", err, blob)
				}
				if parsed.Version != 4 {
					t.Fatalf("bench JSON version %d, want 4:\n%s", parsed.Version, blob)
				}
				if len(parsed.Grid) != 4 { // 2 workloads x 1 size x 2 shard counts
					t.Fatalf("bench JSON has %d grid cells, want 4:\n%s", len(parsed.Grid), blob)
				}
				for _, cell := range parsed.Grid {
					if len(cell.Results) != 3 {
						t.Fatalf("cell %s/%d-shard has %d results, want 3:\n%s",
							cell.Workload, cell.Shards, len(cell.Results), blob)
					}
					for _, r := range cell.Results {
						if r.ReqsPerSec <= 0 || r.BatchReqsPerSec <= 0 || r.CostStreams <= 0 {
							t.Errorf("bench row %+v has non-positive throughput or cost", r)
						}
						// Stage metering is forced on in bench mode, so
						// the plan-stage decomposition must be populated
						// (every admission plans); no backpressure is
						// configured, so no request may be pressure-refused.
						if r.PlanP99US <= 0 {
							t.Errorf("bench row %+v has no plan-stage latency despite metering", r)
						}
						if r.RejectedPressure != 0 {
							t.Errorf("bench row %+v reports pressure rejects without -pressure", r)
						}
						if r.Strategy != "online" {
							// Epoch-based strategies replan at least at drain,
							// and warm-start replanning is the default.
							if r.Replans <= 0 || r.WarmReplans != r.Replans {
								t.Errorf("%s row %+v: want warm_replans == replans > 0", cell.Workload, r)
							}
							// The durable columns are measured on the
							// "online" rows only.
							if r.DurableReqsPerSec != 0 || r.WALFlushesPerReq != 0 {
								t.Errorf("%s row %+v: durable columns on a non-online row", cell.Workload, r)
							}
						} else {
							// Version 4: online rows carry the durable
							// group-commit columns.  Throughput must be
							// positive, and group commit must coalesce —
							// strictly fewer than one store flush per
							// acknowledged request.
							if r.DurableReqsPerSec <= 0 {
								t.Errorf("%s row %+v: non-positive durable throughput", cell.Workload, r)
							}
							if r.WALFlushesPerReq <= 0 || r.WALFlushesPerReq >= 1 {
								t.Errorf("%s row %+v: wal_flushes_per_req = %v, want in (0, 1)",
									cell.Workload, r, r.WALFlushesPerReq)
							}
						}
					}
				}
			}
		})
	}
}

// benchGridFile mirrors the version-4 BENCH_serve.json grid shape, with
// every field the smoke tests assert on.
type benchGridFile struct {
	Version int `json:"version"`
	Grid    []struct {
		Workload string `json:"workload"`
		Objects  int    `json:"objects"`
		Shards   int    `json:"shards"`
		Seed     int64  `json:"seed"`
		Requests int    `json:"requests"`
		Results  []struct {
			Strategy         string  `json:"strategy"`
			Requests         int     `json:"requests"`
			Admitted         int     `json:"admitted"`
			RejectedPressure int64   `json:"rejected_pressure"`
			ReqsPerSec       float64 `json:"reqs_per_sec"`
			BatchReqsPerSec  float64 `json:"batch_reqs_per_sec"`
			P99LatencyUS     float64 `json:"p99_admission_latency_us"`
			QueueP50US       float64 `json:"queue_p50_us"`
			QueueP99US       float64 `json:"queue_p99_us"`
			PlanP50US        float64 `json:"plan_p50_us"`
			PlanP99US        float64 `json:"plan_p99_us"`
			ReplanP50US      float64 `json:"replan_p50_us"`
			ReplanP99US      float64 `json:"replan_p99_us"`
			Replans          int64   `json:"replans"`
			WarmReplans      int64   `json:"warm_replans"`
			CellsReused      int64   `json:"cells_reused"`
			CellsRecomputed  int64   `json:"cells_recomputed"`
			CostStreams      float64 `json:"cost_streams"`
			Peak             int     `json:"peak"`

			DurableReqsPerSec float64 `json:"durable_reqs_per_sec"`
			WALFlushesPerReq  float64 `json:"wal_flushes_per_req"`
		} `json:"results"`
	} `json:"grid"`
}

// TestBenchGridDeterminism pins the bench matrix's reproducibility: two
// runs with the same -seed produce byte-identical grids once the timing
// columns (throughput, latency, replan clocks) are scrubbed — cell seeds
// derive from grid coordinates only, never shard count or scheduling
// order.
func TestBenchGridDeterminism(t *testing.T) {
	bin := buildCmd(t, "modserve")
	run := func(out string) benchGridFile {
		t.Helper()
		args := []string{"-mode", "bench", "-objects", "3", "-delay", "5", "-lambda", "2",
			"-horizon", "2", "-seed", "9", "-strategies", "online,offline,batching",
			"-workloads", "poisson,flash", "-shardgrid", "1,2", "-out", out}
		if o, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("modserve %v: %v\n%s", args, err, o)
		}
		blob, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var parsed benchGridFile
		if err := json.Unmarshal(blob, &parsed); err != nil {
			t.Fatalf("bench JSON does not parse: %v\n%s", err, blob)
		}
		// Scrub wall-clock-derived columns (throughput, latency, and the
		// stage-histogram quantiles); everything left must replay
		// identically.
		for gi := range parsed.Grid {
			for ri := range parsed.Grid[gi].Results {
				r := &parsed.Grid[gi].Results[ri]
				r.ReqsPerSec, r.BatchReqsPerSec, r.P99LatencyUS = 0, 0, 0
				r.QueueP50US, r.QueueP99US = 0, 0
				r.PlanP50US, r.PlanP99US = 0, 0
				r.ReplanP50US, r.ReplanP99US = 0, 0
				r.DurableReqsPerSec, r.WALFlushesPerReq = 0, 0
			}
		}
		return parsed
	}
	tmp := t.TempDir()
	a := run(filepath.Join(tmp, "a.json"))
	b := run(filepath.Join(tmp, "b.json"))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("bench grid is not deterministic across identical runs:\nfirst  %+v\nsecond %+v", a, b)
	}
}

// TestModserveDurableSmoke drives the durability flags end to end: a
// smoke run with -snapshot-dir leaves snapshot and WAL files behind (the
// admin snapshot route is exercised on the way out), and a second run
// with -restore warm-restarts from them cleanly.
func TestModserveDurableSmoke(t *testing.T) {
	bin := buildCmd(t, "modserve")
	dir := filepath.Join(t.TempDir(), "snap")
	base := []string{"-mode", "smoke", "-objects", "3", "-delay", "5", "-lambda", "2",
		"-horizon", "2", "-seed", "5", "-snapshot-dir", dir}

	out, err := exec.Command(bin, base...).CombinedOutput()
	if err != nil {
		t.Fatalf("modserve %v: %v\n%s", base, err, out)
	}
	for _, want := range []string{"durable snapshot saved", "smoke ok"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("first run output missing %q:\n%s", want, out)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("snapshot dir unreadable: %v", err)
	}
	snaps := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snapshot-") {
			snaps++
		}
	}
	if snaps == 0 {
		t.Fatalf("no snapshot files in %s after durable smoke run (found %v)", dir, entries)
	}

	again := append(append([]string{}, base...), "-restore")
	out, err = exec.Command(bin, again...).CombinedOutput()
	if err != nil {
		t.Fatalf("modserve %v: %v\n%s", again, err, out)
	}
	for _, want := range []string{"restored durable state", "smoke ok"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("restore run output missing %q:\n%s", want, out)
		}
	}
}

// TestBenchCSVDump pins the -csv per-request dump: the header names every
// column, each replayed request becomes exactly one row stamped with its
// grid coordinates, and the stage-timing columns are populated (plan time
// is measured for every metered admission).
func TestBenchCSVDump(t *testing.T) {
	bin := buildCmd(t, "modserve")
	tmp := t.TempDir()
	csvPath := filepath.Join(tmp, "requests.csv")
	args := []string{"-mode", "bench", "-objects", "3", "-delay", "5", "-lambda", "2",
		"-horizon", "2", "-seed", "5", "-strategies", "online,batching",
		"-workloads", "poisson", "-out", "", "-csv", csvPath}
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("modserve %v: %v\n%s", args, err, out)
	}
	blob, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatalf("csv dump missing: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
	const wantHeader = "workload,objects,shards,strategy,seq,object,t,outcome,epoch,slot,delay,start_at,queue_ns,plan_ns,replan_ns,submit_ns"
	if lines[0] != wantHeader {
		t.Fatalf("csv header = %q, want %q", lines[0], wantHeader)
	}
	cols := len(strings.Split(wantHeader, ","))
	perStrategy := map[string]int{}
	for i, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != cols {
			t.Fatalf("csv row %d has %d fields, want %d: %q", i+1, len(f), cols, line)
		}
		if f[0] != "Poisson" || f[1] != "3" {
			t.Errorf("csv row %d grid coordinates = %s/%s, want Poisson/3", i+1, f[0], f[1])
		}
		perStrategy[f[3]]++
		if f[7] != "admitted" && f[7] != "degraded" && f[7] != "rejected" {
			t.Errorf("csv row %d outcome = %q", i+1, f[7])
		}
		if sub := f[15]; sub == "" || sub == "0" || strings.HasPrefix(sub, "-") {
			t.Errorf("csv row %d has no submit round-trip timing: %q", i+1, line)
		}
	}
	if len(perStrategy) != 2 || perStrategy["online"] == 0 || perStrategy["batching"] == 0 {
		t.Errorf("csv rows per strategy = %v, want both online and batching", perStrategy)
	}
	if perStrategy["online"] != perStrategy["batching"] {
		t.Errorf("csv row counts differ per strategy: %v (same trace each)", perStrategy)
	}
	if !strings.Contains(string(out), "wrote per-request dump") {
		t.Errorf("bench output does not announce the csv dump:\n%s", out)
	}
}

// TestCommandSmokeBadFlags pins non-zero exits for invalid invocations so
// scripts can rely on the exit code.
func TestCommandSmokeBadFlags(t *testing.T) {
	bins := map[string]string{}
	for _, tc := range []struct {
		cmd  string
		args []string
	}{
		{"modsim", []string{"-mode", "nope"}},
		{"modserve", []string{"-mode", "nope"}},
		{"modserve", []string{"-mode", "serve", "-snapshot-dir", "/dev/null/nope"}},
		{"modserve", []string{"-mode", "smoke", "-restore"}},
		{"modserve", []string{"-mode", "bench", "-arrivals", "nope"}},
		{"modserve", []string{"-mode", "bench", "-workloads", "nope"}},
		{"modserve", []string{"-mode", "bench", "-shardgrid", "1,x"}},
		{"modserve", []string{"-mode", "bench", "-sync", "nope"}},
		{"modlint", []string{"-run", "nope"}},
	} {
		bin, ok := bins[tc.cmd]
		if !ok {
			bin = buildCmd(t, tc.cmd)
			bins[tc.cmd] = bin
		}
		if out, err := exec.Command(bin, tc.args...).CombinedOutput(); err == nil {
			t.Errorf("%s %v exited 0, want failure:\n%s", tc.cmd, tc.args, out)
		}
	}
}
