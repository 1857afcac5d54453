package mod_test

import (
	"context"
	"fmt"
	"sort"

	"repro/mod"
)

// ExampleNew plans one evening of video-on-demand with the paper's on-line
// delay-guaranteed algorithm: a deterministic constant-rate trace (one
// request every 0.4% of the movie length) over 10 movie lengths, with a 1%
// guaranteed start-up delay.
func ExampleNew() {
	p, err := mod.New("online", mod.WithDelay(0.01))
	if err != nil {
		panic(err)
	}
	plan, err := p.Plan(context.Background(), mod.Instance{
		Arrivals: mod.Constant(0.004, 10),
		Horizon:  10,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %.0f media streams (%.1f average channels)\n", plan.Planner, plan.Cost, plan.AverageChannels)
	// Output:
	// online: 83 media streams (8.3 average channels)
}

// ExampleCompare replays the same trace against the paper's whole
// comparison set at once.
func ExampleCompare() {
	costs, err := mod.Compare(context.Background(),
		mod.StandardNames(),
		mod.Instance{Arrivals: mod.Constant(0.004, 10), Horizon: 10},
		mod.WithDelay(0.01), mod.WithPoisson(false),
	)
	if err != nil {
		panic(err)
	}
	names := make([]string, 0, len(costs))
	for name := range costs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s: %.0f streams\n", name, costs[name])
	}
	// Output:
	// batching: 1000 streams
	// dyadic: 102 streams
	// dyadic-batched: 84 streams
	// hybrid: 83 streams
	// online: 83 streams
	// unicast: 2500 streams
}

// ExamplePlanner_plan bounds an off-line optimal plan with per-call
// options: the DP gets a memory budget, and the plan is rejected if it
// would exceed a 10-channel cap.
func ExamplePlanner_plan() {
	p, err := mod.New("offline", mod.WithMemoryBudget(64<<20))
	if err != nil {
		panic(err)
	}
	plan, err := p.Plan(context.Background(), mod.Instance{
		Arrivals: mod.Constant(0.01, 4),
		Horizon:  4,
	}, mod.WithChannelCap(10))
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %.2f media streams for %d arrivals\n", plan.Planner, plan.Cost, plan.Arrivals)
	// Output:
	// offline: 33.04 media streams for 400 arrivals
}
