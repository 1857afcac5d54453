// Live server: an evening of live admission control with per-title
// serving strategies.
//
// A Media-on-Demand operator serves a 12-title Zipf catalog from a server
// with a hard budget of 35 channels.  Requests arrive as a nonhomogeneous
// Poisson process that ramps up 4x toward prime time.  Instead of declining
// requests when the budget fills, the admission controller applies the
// Section 5 trade live: it scales the guaranteed start-up delay of the
// requested object up step by step, so every client is still served — just
// with a slightly longer (but still guaranteed) wait — and only rejects
// once an object's delay has been stretched to its configured maximum.
//
// Titles pick their planner family individually: the hottest titles run
// the paper's oblivious on-line forest (bounded bandwidth regardless of
// load), the mid-catalog uses the hybrid's mode-switching timeline, and
// the long tail is served by epoch-replanned batched dyadic merging —
// empty slots cost nothing there.  The example replays the trace in
// virtual time through the sharded event loops (the same deterministic
// path the equivalence tests pin against the batch planners), drains the
// server, and prints the admission report, the per-title strategies and
// delay scales the evening ended with, and the server's peak, average and
// busy time.
//
// Run with:
//
//	go run ./examples/liveserver
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/mod"
)

func main() {
	const (
		titles  = 12
		delay   = 0.02 // offered start-up delay: 2% of the media length
		horizon = 30.0 // the evening, in media lengths
		budget  = 35   // channel cap
		seed    = 2026
	)
	// Strategy routing by popularity rank: the head of the catalog gets
	// the on-line forest, the middle the hybrid, the tail batched dyadic.
	cat := mod.ZipfCatalog(titles, 1.0, delay, 1.0)
	for i := range cat {
		switch {
		case i < 4:
			cat[i].Strategy = "online"
		case i < 8:
			cat[i].Strategy = "hybrid"
		default:
			cat[i].Strategy = "dyadic-batched"
		}
	}
	srv, err := mod.NewServer(mod.ServeConfig{
		Catalog:       cat,
		MaxChannels:   budget,
		DegradeStep:   1.25,
		MaxDelayScale: 32,
		EpochSlots:    250, // tail titles replan every 5 media lengths
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	reqs, err := mod.GenerateRequests(cat, mod.LoadConfig{
		Horizon:          horizon,
		MeanInterArrival: 0.01, // aggregate: one request every 1% of a media length
		Kind:             mod.RampArrivals,
		RampFactor:       4,
		Seed:             seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Serving %d titles under a %d-channel budget; %d requests over %.0f media lengths.\n\n",
		titles, budget, len(reqs), horizon)

	rep, err := mod.RunDriver(context.Background(), srv, reqs, horizon)
	if err != nil {
		log.Fatal(err)
	}
	rep.Render(os.Stdout)

	degradedTitles := 0
	for _, o := range rep.Drain.Objects {
		if o.Scale > 1 {
			degradedTitles++
		}
	}
	fmt.Printf("\n%d of %d titles ended the evening at a degraded delay; nobody waited longer than their ticket promised.\n",
		degradedTitles, titles)
}
