// Package mod is the public facade of the Media-on-Demand stream-merging
// system: one stable, composable API over every algorithm family in the
// repository — the paper's on-line delay-guaranteed algorithm, the exact
// off-line optimum (immediate and batched service), the dyadic baselines,
// pure batching, the Section 5 hybrid, and the unicast strawman — plus the
// trace generators, the slotted broadcast planner, the multi-object
// catalog planner, the discrete-event simulator, and the live admission
// server.  Everything under internal/ is reachable through this package;
// cmd/ binaries and examples/ compile against it exclusively (a CI test
// pins that).
//
// # Planners
//
// The core abstraction is the Planner: give it a problem Instance (client
// arrival times and a horizon), get back a Plan (the total server
// bandwidth in complete media streams, plus planner-specific detail).
// Planners are obtained by name from the fixed built-in set (Planners
// lists it):
//
//	p, err := mod.New("online", mod.WithDelay(0.01))
//	plan, err := p.Plan(ctx, mod.Instance{Arrivals: trace, Horizon: 100})
//
// The built-in planner names are stable (a golden-list test pins them):
//
//	online           the paper's delay-guaranteed on-line algorithm
//	offline          exact off-line optimum, immediate service (interval DP)
//	offline-batched  exact off-line optimum with batched (delayed) service
//	dyadic           immediate-service dyadic stream merging
//	dyadic-batched   batched dyadic stream merging
//	batching         merging-free batching (one full stream per busy slot)
//	hybrid           Section 5 hybrid (delay-guaranteed when loaded, dyadic when idle)
//	unicast          no sharing: a private full stream per client
//
// Each built-in planner checks the settings its algorithm needs and calls
// the algorithm directly; Compare runs the same planners on one instance
// at once, spread over a WithWorkers pool, with the costs Plan returns.
// Arrival times are nondecreasing, and clients arriving at the same
// instant share a stream.
//
// Behavior is configured with functional options (WithDelay, WithWorkers,
// WithChannelCap, WithMemoryBudget, WithHorizon, ...), applied at New time
// and overridable per Plan call.  Every Plan takes a context.Context;
// long-running planners (the off-line DP can run for seconds at large n)
// abort within one DP work unit of the context being done.
//
// # Errors
//
// Failures wrap stable sentinel errors, testable with errors.Is through
// every layer: ErrUnknownPlanner, ErrBadInstance, ErrInstanceTooLarge,
// ErrCapacity, and ErrCanceled.
//
// # Beyond planners
//
// The facade also surfaces, as thin wrappers and type aliases over the
// internal packages:
//
//   - trace generation (Poisson, Constant, Ramp, MergeTraces),
//   - the slotted broadcast planner and simulator (OnlineForest,
//     OfflineForest, BuildSchedule, Simulate, ...),
//   - multi-object catalog planning (ZipfCatalog, PlanCatalog, FitDelays,
//     PopularityAwareDelays) and the workload simulator (RunWorkload),
//   - the live sharded admission server and its versioned /v1 HTTP API
//     (NewServer, ListenAndServe, GenerateRequests, RunDriver, ...),
//     configured by a ServeConfig.  Every planner can serve live
//     traffic: LivePlanners lists the capability set,
//     ServeConfig.DefaultStrategy (or per-object Object.Strategy entries)
//     routes catalog objects onto planner families, and a drained live
//     run over one whole-horizon epoch reproduces the batch Plan cost bit
//     for bit.  The off-line
//     families' epoch closes warm-start: they resume the forest DP
//     tables (offline.Tables.Extend) absorbed as arrivals were admitted
//     instead of recomputing them, bit-identically, and
//     ObjectStats.Replan reports the reuse accounting.
package mod
