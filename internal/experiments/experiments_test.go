package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestFig1Shape(t *testing.T) {
	res := Fig1(DefaultFig1())
	if res.ID != "fig1" || len(res.Series) != 2 {
		t.Fatalf("unexpected result meta: %+v", res.ID)
	}
	offline := res.Series[0].Y
	onlineY := res.Series[1].Y
	if len(offline) != len(DefaultFig1().DelayPercents) {
		t.Fatalf("unexpected number of points")
	}
	// Bandwidth decreases as the guaranteed delay grows (the whole point of
	// Fig. 1), for both algorithms.
	for i := 1; i < len(offline); i++ {
		if offline[i] > offline[i-1]+1e-9 {
			t.Errorf("offline bandwidth increased from %.2f to %.2f at point %d", offline[i-1], offline[i], i)
		}
		if onlineY[i] > onlineY[i-1]+1e-9 {
			t.Errorf("online bandwidth increased at point %d", i)
		}
	}
	// The on-line algorithm is close to, and never better than, the optimum.
	for i := range offline {
		if onlineY[i] < offline[i]-1e-9 {
			t.Errorf("online beat offline at point %d", i)
		}
		if onlineY[i] > offline[i]*1.25 {
			t.Errorf("online more than 25%% above optimal at point %d: %.2f vs %.2f", i, onlineY[i], offline[i])
		}
	}
	// Batching (last column) is far above both.
	if len(res.Table.Rows) == 0 || len(res.Table.Rows[0]) != 6 {
		t.Fatalf("table shape wrong")
	}
}

func TestTableM(t *testing.T) {
	res := TableM(16)
	if len(res.Table.Rows) != 16 {
		t.Fatalf("expected 16 rows, got %d", len(res.Table.Rows))
	}
	// Row for n=8 must show M(8)=21 in both the closed form and DP columns.
	row := res.Table.Rows[7]
	if row[0] != "8" || row[1] != "21" || row[2] != "21" {
		t.Errorf("row for n=8 = %v", row)
	}
	// The last row is n=16 with M=64 (paper table).
	last := res.Table.Rows[15]
	if last[1] != "64" {
		t.Errorf("M(16) = %s, want 64", last[1])
	}
}

func TestTableMAll(t *testing.T) {
	res := TableMAll(16)
	if len(res.Table.Rows) != 16 {
		t.Fatalf("expected 16 rows")
	}
	if res.Table.Rows[15][1] != "49" {
		t.Errorf("Mw(16) = %s, want 49", res.Table.Rows[15][1])
	}
	if res.Table.Rows[0][3] != "1" {
		t.Errorf("ratio at n=1 should be 1, got %s", res.Table.Rows[0][3])
	}
}

func TestTableI(t *testing.T) {
	res := TableI(55)
	if len(res.Table.Rows) != 54 {
		t.Fatalf("expected 54 rows (n=2..55), got %d", len(res.Table.Rows))
	}
	// n=55 is a Fibonacci number: I(55) = {34}.
	last := res.Table.Rows[len(res.Table.Rows)-1]
	if last[0] != "55" || last[1] != "34" || last[2] != "34" || last[3] != "1" {
		t.Errorf("I(55) row = %v", last)
	}
	// n=4 has the interval [2,3] (Fig. 6).
	row4 := res.Table.Rows[2]
	if row4[1] != "2" || row4[2] != "3" {
		t.Errorf("I(4) row = %v", row4)
	}
}

func TestTheorem12Examples(t *testing.T) {
	res := Theorem12Examples()
	if len(res.Table.Rows) < 3 {
		t.Fatalf("expected at least 3 example rows")
	}
	// First row: L=15, n=8 -> optimal cost 36.
	if res.Table.Rows[0][7] != "36" {
		t.Errorf("F(15,8) column = %s, want 36", res.Table.Rows[0][7])
	}
	// Second row: L=15, n=14 -> 64.
	if res.Table.Rows[1][7] != "64" {
		t.Errorf("F(15,14) column = %s, want 64", res.Table.Rows[1][7])
	}
	// Third row: L=4, n=16 -> 38, with F(L,n,s0)=40.
	if res.Table.Rows[2][7] != "38" || res.Table.Rows[2][4] != "40" {
		t.Errorf("L=4,n=16 row = %v", res.Table.Rows[2])
	}
}

func TestTheorem14AdvantageGrows(t *testing.T) {
	res := Theorem14(DefaultTheorem14())
	adv := res.Series[0].Y
	for i := 1; i < len(adv); i++ {
		if adv[i] <= adv[i-1] {
			t.Errorf("advantage did not grow at point %d: %.3f after %.3f", i, adv[i], adv[i-1])
		}
	}
}

func TestReceiveAllRatioApproachesLimit(t *testing.T) {
	res := ReceiveAllRatio([]int64{16, 4096, 1 << 20}, 1000)
	rows := res.Table.Rows
	if len(rows) != 3 {
		t.Fatalf("expected 3 rows")
	}
	// The merge-cost ratio in the last row must be within 3% of log_phi 2.
	lastRatio := parseF(t, rows[2][1])
	if lastRatio < core.LogPhi2-0.05 || lastRatio > core.LogPhi2+0.05 {
		t.Errorf("ratio at n=2^20 is %v, want close to %v", lastRatio, core.LogPhi2)
	}
}

func TestFig9RatiosDecreaseTowardOne(t *testing.T) {
	res := Fig9(Fig9Config{Ls: []int64{20, 100}, Horizons: []int64{200, 1000, 10000, 100000}})
	for _, s := range res.Series {
		last := s.Y[len(s.Y)-1]
		if last < 1 || last > 1.05 {
			t.Errorf("series %s: final ratio %.4f not within 5%% of 1", s.Name, last)
		}
		if s.Y[0] < last-1e-9 {
			t.Errorf("series %s: ratio grew with the horizon", s.Name)
		}
	}
}

func TestFig11QualitativeShape(t *testing.T) {
	cfg := ComparisonConfig{
		DelayPct:     1.0,
		HorizonMedia: 40,
		LambdaPcts:   []float64{0.1, 0.5, 1.0, 3.0, 5.0},
		Replications: 1,
		Seed:         7,
	}
	res, err := Fig11(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	imm := res.Series[0].Y
	bat := res.Series[1].Y
	dg := res.Series[2].Y
	// The delay-guaranteed cost is independent of the arrival intensity.
	for i := 1; i < len(dg); i++ {
		if dg[i] != dg[0] {
			t.Errorf("delay-guaranteed bandwidth varies with lambda: %v", dg)
		}
	}
	// Dense arrivals (lambda << delay): immediate service is the most
	// expensive and the delay-guaranteed algorithm is competitive.
	if !(imm[0] > bat[0]) {
		t.Errorf("at lambda=0.1%%: immediate (%.1f) should exceed batched (%.1f)", imm[0], bat[0])
	}
	if !(imm[0] > dg[0]) {
		t.Errorf("at lambda=0.1%%: immediate (%.1f) should exceed delay-guaranteed (%.1f)", imm[0], dg[0])
	}
	// Sparse arrivals (lambda >> delay): the delay-guaranteed algorithm is
	// the most expensive because it starts streams for empty slots.
	lastIdx := len(imm) - 1
	if !(dg[lastIdx] > imm[lastIdx]) || !(dg[lastIdx] > bat[lastIdx]) {
		t.Errorf("at lambda=5%%: delay-guaranteed (%.1f) should exceed immediate (%.1f) and batched (%.1f)",
			dg[lastIdx], imm[lastIdx], bat[lastIdx])
	}
	// Sparse arrivals: immediate and batched behave similarly (within 20%).
	if rel := abs(imm[lastIdx]-bat[lastIdx]) / imm[lastIdx]; rel > 0.2 {
		t.Errorf("at lambda=5%%: immediate and batched differ by %.0f%%", rel*100)
	}
}

func TestFig12QualitativeShape(t *testing.T) {
	cfg := ComparisonConfig{
		DelayPct:     1.0,
		HorizonMedia: 40,
		LambdaPcts:   []float64{0.1, 1.0, 5.0},
		Replications: 2,
		Seed:         3,
	}
	res, err := Fig12(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	imm := res.Series[0].Y
	bat := res.Series[1].Y
	dg := res.Series[2].Y
	if !(imm[0] > dg[0]) {
		t.Errorf("Poisson, lambda=0.1%%: immediate (%.1f) should exceed delay-guaranteed (%.1f)", imm[0], dg[0])
	}
	last := len(imm) - 1
	if !(dg[last] > imm[last]) || !(dg[last] > bat[last]) {
		t.Errorf("Poisson, lambda=5%%: delay-guaranteed should be the most expensive (dg=%.1f imm=%.1f bat=%.1f)",
			dg[last], imm[last], bat[last])
	}
}

func TestBufferTradeoff(t *testing.T) {
	res := BufferTradeoff(40, 200)
	if len(res.Table.Rows) != int(core.MaxUsefulBuffer(40)) {
		t.Fatalf("expected one row per buffer size up to L/2, got %d", len(res.Table.Rows))
	}
	// Cost ratio vs. the unbounded optimum is non-increasing in B and
	// reaches exactly 1 at B = L/2.
	ys := res.Series[0].Y
	for i := 1; i < len(ys); i++ {
		if ys[i] > ys[i-1]+1e-12 {
			t.Errorf("cost increased with a larger buffer at B=%d", i+1)
		}
	}
	if ys[len(ys)-1] != 1 {
		t.Errorf("cost at B=L/2 should equal the unbounded optimum, ratio %v", ys[len(ys)-1])
	}
	if ys[0] <= 1 {
		t.Errorf("a one-slot buffer should cost strictly more than unbounded")
	}
}

func TestOnlineTreeSizeAblation(t *testing.T) {
	res := OnlineTreeSizeAblation(100, 10000)
	if len(res.Table.Rows) != 5 {
		t.Fatalf("expected 5 candidate rows")
	}
	// The paper's F_h choice must be the cheapest candidate.
	var paperCost, minCost float64
	minCost = -1
	for _, row := range res.Table.Rows {
		c := parseF(t, row[2])
		if strings.Contains(row[0], "paper") {
			paperCost = c
		}
		if minCost < 0 || c < minCost {
			minCost = c
		}
	}
	if paperCost != minCost {
		t.Errorf("the F_h rule (cost %v) is not the cheapest static size (min %v)", paperCost, minCost)
	}
}

func TestAllRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full experiment sweep in -short mode")
	}
	results, err := AllWithWorkers(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 17 {
		t.Fatalf("expected 17 experiments, got %d", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if r.ID == "" || r.Table == nil || len(r.Table.Rows) == 0 {
			t.Errorf("experiment %q has no data", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate experiment id %q", r.ID)
		}
		seen[r.ID] = true
		if !strings.Contains(r.Table.CSV(), ",") {
			t.Errorf("experiment %q CSV looks wrong", r.ID)
		}
	}
	for _, id := range []string{"fig1", "fig8", "fig9", "fig11", "fig12", "table-m", "table-mw", "thm12", "thm14", "thm19",
		"online-treesize", "buffer-tradeoff", "ext-hybrid", "ext-multiobject", "ext-dyadic-vs-optimal", "ext-workload-sim", "ext-live-vs-batch"} {
		if !seen[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q as float: %v", s, err)
	}
	return v
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestComparisonSweepBitIdenticalAcrossWorkers checks the Figs. 11-12
// replication grid produces exactly the same series for any worker count:
// replication seeds derive from grid coordinates, never scheduling order.
func TestComparisonSweepBitIdenticalAcrossWorkers(t *testing.T) {
	cfg := ComparisonConfig{
		DelayPct:     1.0,
		HorizonMedia: 10,
		LambdaPcts:   []float64{0.5, 1.0, 2.0},
		Replications: 3,
		Seed:         1,
		Workers:      1,
	}
	serial, err := Fig12(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 7} {
		cfg.Workers = workers
		par, err := Fig12(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for si := range serial.Series {
			for i := range serial.Series[si].Y {
				if par.Series[si].Y[i] != serial.Series[si].Y[i] {
					t.Fatalf("workers=%d: series %q point %d = %v, want bit-identical %v",
						workers, serial.Series[si].Name, i, par.Series[si].Y[i], serial.Series[si].Y[i])
				}
			}
		}
	}
}

// TestDyadicVsOptimalBitIdenticalAcrossWorkers does the same for the
// extension sweep that exercises the parallel offline DP underneath.
func TestDyadicVsOptimalBitIdenticalAcrossWorkers(t *testing.T) {
	cfg := DyadicVsOptimalConfig{
		LambdaPcts:   []float64{0.5, 1, 2},
		HorizonMedia: 2,
		Replications: 2,
		Seed:         23,
		Workers:      1,
	}
	serial, err := DyadicVsOptimal(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := DyadicVsOptimal(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Series[0].Y) != len(serial.Series[0].Y) {
		t.Fatalf("parallel sweep has %d points, serial %d", len(par.Series[0].Y), len(serial.Series[0].Y))
	}
	for i := range serial.Series[0].Y {
		if par.Series[0].Y[i] != serial.Series[0].Y[i] {
			t.Fatalf("point %d = %v, want bit-identical %v", i, par.Series[0].Y[i], serial.Series[0].Y[i])
		}
	}
}
