package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func TestMain(m *testing.M) {
	// Every workload re-executes this binary as its helper processes.
	if code, ok := childMain(); ok {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// smokeSizes shrinks a workload to a run of about a second that still
// takes every phase, window and check of the real one.
func smokeSizes(w workload) sizes {
	z := sizes{openRate: 200, windows: 2, satWindows: 2, setups: 3, batch: 100, seconds: 0.2}
	if !w.wire {
		z.horizon = 5
		return z
	}
	z.warm, z.open, z.sat = 300, 40, 400
	if w.durable {
		z.prefix = 2000
	}
	z.horizon = wireHorizon(z)
	return z
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func metricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	return names
}

func sameNames(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsSmoke runs every workload, untraced and traced, through
// the same code path as a real run at a smoke size, and requires every
// output check to pass and every declared metric to be reported.
func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				res, err := run(options{
					w:       w,
					seed:    7,
					z:       smokeSizes(w),
					traced:  traced,
					workDir: filepath.Join(dir, "work"),
					spanDir: filepath.Join(dir, "spans"),
					out:     io.Discard,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if got := metricNames(res.Metrics); !sameNames(got, want) {
					t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, want)
				}
				if !traced {
					if ok := res.Metrics["ok_ratio"].Value; ok != 1 {
						t.Errorf("ok_ratio = %v, want 1", ok)
					}
					for _, n := range endToEnd {
						if res.Metrics[n].Value <= 0 {
							t.Errorf("%s = %v, want > 0", n, res.Metrics[n].Value)
						}
					}
				}
			})
		}
	}
}

// TestBrokenOutputFailsCheck pins that a ticket outside its delay
// guarantee, or a refused one, fails the output check.
func TestBrokenOutputFailsCheck(t *testing.T) {
	cases := []struct {
		body string
		ok   bool
	}{
		{`{"decision":"admitted","t":1.5,"delay":0.02,"start_at":1.52}`, true},
		{`{"decision":"degraded","t":1.5,"delay":0.025,"start_at":1.5}`, true},
		{`{"decision":"admitted","t":1.5,"delay":0.02,"start_at":1.53}`, false},
		{`{"decision":"admitted","t":1.5,"delay":0.02,"start_at":1.49}`, false},
		{`{"decision":"rejected","t":1.5,"delay":0.02,"start_at":1.51}`, false},
		{`not json`, false},
	}
	for _, c := range cases {
		if got := ticketBodyProblem([]byte(c.body)) == ""; got != c.ok {
			t.Errorf("%s: ok=%v, want %v", c.body, got, c.ok)
		}
	}
}

// TestOpsCarryExactAdmissions pins the read interleaving: a phase of
// count admissions sends exactly count admissions, in trace order.
func TestOpsCarryExactAdmissions(t *testing.T) {
	for _, every := range []int{0, 2, 3, 100} {
		for _, inter := range []bool{false, true} {
			for _, count := range []int{1, 7, 99, 100, 1000} {
				cmd := &phaseCmd{Count: count, ReadEvery: every}
				if inter {
					cmd.Rate = 1
				}
				ops := opsFor(cmd)
				next, refs := 0, 0
				for j := 0; j < ops; j++ {
					kind, k := opAt(j, cmd)
					switch kind {
					case opRef:
						refs++
					case opAdmit:
						if k != next {
							t.Fatalf("%+v: op %d sends admission %d, want %d", cmd, j, k, next)
						}
						next++
					}
				}
				if next != count {
					t.Fatalf("%+v: %d admissions", cmd, next)
				}
				if kind, _ := opAt(ops-1, cmd); kind == opRead {
					t.Fatalf("%+v: phase ends on a read", cmd)
				}
				if inter && refs != ops/2 {
					t.Fatalf("%+v: %d reference admissions of %d operations", cmd, refs, ops)
				}
			}
		}
	}
}
