package serve

// Tests of the incrementally maintained historical peak behind Stats and
// Metrics: exactness against a full bandwidth.Usage over every finalized
// interval, for every strategy and shard layout, under degradation and
// across a restore; safety under concurrent readers; and the read cost
// that must not grow with history.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bandwidth"
	"repro/internal/multiobject"
	"repro/internal/store"
)

// intervalOracle collects every interval a server's shards finalize,
// per shard in finalization order, through the shards' onFinalize hooks.
// A hook runs on its shard's loop, so the oracle installs it, and reads
// what it collected, only while that shard is paused.
type intervalOracle struct {
	shards [][]bandwidth.Interval
}

// install hooks the oracle into every shard of s.  It must run before s
// finalizes anything the oracle has not seen: right after New, and after
// a restore only if the restore replayed no WAL record.
func (o *intervalOracle) install(t *testing.T, s *Server) {
	t.Helper()
	if o.shards == nil {
		o.shards = make([][]bandwidth.Interval, len(s.shards))
	}
	for i, sh := range s.shards {
		release, err := s.Pause(i)
		if err != nil {
			t.Fatal(err)
		}
		i := i
		sh.onFinalize = func(iv bandwidth.Interval) { o.shards[i] = append(o.shards[i], iv) }
		release()
	}
}

// paused parks every shard loop in turn and reads what the oracle
// collected from it.  It returns the peak of all intervals, and the busy
// time Stats must report: each shard's intervals summed in finalization
// order, and those sums added in shard order.
func (o *intervalOracle) paused(t *testing.T, s *Server) (peak int, busy float64) {
	t.Helper()
	all := bandwidth.New()
	for i := range s.shards {
		release, err := s.Pause(i)
		if err != nil {
			t.Fatal(err)
		}
		own := bandwidth.New()
		for _, iv := range o.shards[i] {
			all.Add(iv.Start, iv.End)
			own.Add(iv.Start, iv.End)
		}
		busy += own.Total()
		release()
	}
	return all.Peak(), busy
}

// checkPeak compares Stats and Metrics with the oracle.  No submit may be
// in flight, so both observe the same finalized history.
func checkPeak(t *testing.T, s *Server, o *intervalOracle, where string) {
	t.Helper()
	wantPeak, wantBusy := o.paused(t, s)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Peak != wantPeak || math.Float64bits(st.BusyTime) != math.Float64bits(wantBusy) {
		t.Fatalf("%s: Stats peak %d busy %v, oracle over every finalized interval: peak %d busy %v",
			where, st.Peak, st.BusyTime, wantPeak, wantBusy)
	}
	m, err := s.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.Peak != wantPeak || math.Float64bits(m.Stats.BusyTime) != math.Float64bits(wantBusy) {
		t.Fatalf("%s: Metrics peak %d busy %v, oracle: peak %d busy %v", where, m.Stats.Peak, m.Stats.BusyTime, wantPeak, wantBusy)
	}
}

func peakCatalog() multiobject.Catalog {
	return multiobject.Catalog{
		{Name: "a", Length: 1, Popularity: 5, Delay: 0.05},
		{Name: "b", Length: 2, Popularity: 3, Delay: 0.125},
		{Name: "c", Length: 0.5, Popularity: 2, Delay: 0.08},
		{Name: "d", Length: 1, Popularity: 1, Delay: 0.1},
		{Name: "e", Length: 1.5, Popularity: 1, Delay: 0.06},
	}
}

// TestStatsPeakExact is the exactness oracle: at random checkpoints of a
// trace, Stats().Peak equals bandwidth.Usage.Peak over every interval
// finalized so far, and BusyTime is bit-identical to the oracle's sum
// (at one shard, to Usage.Total itself).  It covers every strategy at 1,
// 2 and 5 shards, with a channel cap that forces degradations, and runs
// the second half of the trace on a server restored from a Mem store.
func TestStatsPeakExact(t *testing.T) {
	reqs, err := GenerateRequests(peakCatalog(), LoadConfig{Horizon: 8, MeanInterArrival: 0.03, Kind: PoissonArrivals, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range LivePlanners() {
		for _, shards := range []int{1, 2, 5} {
			t.Run(fmt.Sprintf("%s/shards=%d", strategy, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(shards)))
				mem := store.NewMem()
				cfg := Config{
					Catalog:         peakCatalog(),
					Shards:          shards,
					DefaultStrategy: strategy,
					EpochSlots:      6,
					MaxChannels:     18,
					MaxDelayScale:   64,
					Store:           mem,
				}
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var oracle intervalOracle
				oracle.install(t, s)
				half := len(reqs) / 2
				next := 0
				run := func(to int) {
					for next < to {
						k := min(next+1+rng.Intn(40), to)
						for _, res := range s.SubmitBatch(reqs[next:k]) {
							if res.Err != nil {
								t.Fatal(res.Err)
							}
						}
						next = k
						checkPeak(t, s, &oracle, fmt.Sprintf("after %d requests", next))
					}
				}
				run(half)
				if err := s.Snapshot(); err != nil {
					t.Fatal(err)
				}
				s.Close()
				cfg.Restore = true
				if s, err = New(cfg); err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				// The snapshot truncated the WAL, so the restore replayed
				// nothing the oracle has not seen.
				oracle.install(t, s)
				checkPeak(t, s, &oracle, "first read after restore")
				run(len(reqs))
				st, err := s.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if st.Degraded == 0 {
					t.Fatal("the channel cap never degraded a request; the test lost its degradation coverage")
				}
			})
		}
	}
}

// TestStatsConcurrentReaders runs Stats and Metrics readers alongside
// the submitter and the settler, which every saved snapshot wakes.  Each
// reader must see a peak and busy time that never decrease, and once the
// trace is in, the peak must match the oracle.
func TestStatsConcurrentReaders(t *testing.T) {
	for _, strategy := range []string{"online", "offline"} {
		t.Run(strategy, func(t *testing.T) {
			reqs, err := GenerateRequests(peakCatalog(), LoadConfig{Horizon: 12, MeanInterArrival: 0.02, Kind: PoissonArrivals, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Catalog: peakCatalog(), Shards: 3, DefaultStrategy: strategy, EpochSlots: 6, MaxChannels: 40,
				Store: store.NewMem()})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var oracle intervalOracle
			oracle.install(t, s)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(metrics bool) {
					defer wg.Done()
					lastPeak, lastBusy := 0, 0.0
					for {
						select {
						case <-stop:
							return
						default:
						}
						var m MetricsSnapshot
						var err error
						if metrics {
							m, err = s.Metrics()
						} else {
							m.Stats, err = s.Stats()
						}
						if err != nil {
							t.Error(err)
							return
						}
						st := m.Stats
						if st.Peak < lastPeak || st.BusyTime < lastBusy {
							t.Errorf("a reader saw peak %d busy %v after peak %d busy %v", st.Peak, st.BusyTime, lastPeak, lastBusy)
							return
						}
						lastPeak, lastBusy = st.Peak, st.BusyTime
					}
				}(r%2 == 1)
			}
			for _, req := range reqs {
				if _, err := s.Submit(req); err != nil {
					t.Fatal(err)
				}
			}
			// The snapshot saves wake the settler; the readers keep reading
			// until it has finished a run, however slowly it is scheduled.
			for deadline := time.Now().Add(10 * time.Second); s.settles.Load() == 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			close(stop)
			wg.Wait()
			if s.settles.Load() == 0 {
				t.Fatal("the settler never ran during the concurrent run")
			}
			checkPeak(t, s, &oracle, "after the concurrent run")
		})
	}
}

// zipfHistory returns the first n requests of a Poisson trace over cat
// at 1000 requests per time unit.
func zipfHistory(tb testing.TB, cat multiobject.Catalog, n int) []Request {
	tb.Helper()
	reqs, err := GenerateRequests(cat, LoadConfig{Horizon: float64(n)/1000*1.2 + 1, MeanInterArrival: 0.001, Kind: PoissonArrivals, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if len(reqs) < n {
		tb.Fatalf("generated %d requests, need %d", len(reqs), n)
	}
	return reqs[:n]
}

func submitChunked(tb testing.TB, s *Server, reqs []Request) {
	tb.Helper()
	for len(reqs) > 0 {
		k := min(len(reqs), 500)
		for _, res := range s.SubmitBatch(reqs[:k]) {
			if res.Err != nil {
				tb.Fatal(res.Err)
			}
		}
		reqs = reqs[k:]
	}
}

// TestStatsReadCostIndependentOfHistory is the regression guard for the
// read cost: once the history is folded, the bytes one Stats call
// allocates depend on the catalog and on what changed since the last
// read, not on how many requests came before.  Reading every finalized
// interval would allocate four times as much after 4H admissions as
// after H.
func TestStatsReadCostIndependentOfHistory(t *testing.T) {
	const h, between = 12000, 100
	cat := multiobject.ZipfCatalog(64, 1, 0.02, 1)
	reqs := zipfHistory(t, cat, 4*h+6*between)
	s, err := New(Config{Catalog: cat, Shards: 2, DefaultStrategy: "online"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	next := 0
	// readBytes admits `between` more requests before each of three reads
	// and returns the fewest bytes one of the reads allocated.
	readBytes := func() uint64 {
		best := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			submitChunked(t, s, reqs[next:next+between])
			next += between
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := s.Stats(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	warmAt := func(n int) {
		submitChunked(t, s, reqs[next:n])
		next = n
		if _, err := s.Stats(); err != nil {
			t.Fatal(err)
		}
	}
	warmAt(h)
	small := readBytes()
	warmAt(4 * h)
	large := readBytes()
	t.Logf("bytes allocated by one Stats call: %d after %d admissions, %d after %d", small, h, large, 4*h)
	if large > small+small/2 {
		t.Fatalf("one Stats call allocated %d bytes after %d admissions but %d after %d: the read cost grows with history",
			small, h, large, 4*h)
	}
}

// BenchmarkServerStats times one Stats read over more than 100k
// admissions of history, with 100 new admissions (untimed) before each
// read.
func BenchmarkServerStats(b *testing.B) {
	const history, between = 120000, 100
	cat := multiobject.ZipfCatalog(64, 1, 0.02, 1)
	reqs := zipfHistory(b, cat, history+b.N*between)
	s, err := New(Config{Catalog: cat, Shards: 2, DefaultStrategy: "online"})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	submitChunked(b, s, reqs[:history])
	if _, err := s.Stats(); err != nil {
		b.Fatal(err)
	}
	next := history
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		submitChunked(b, s, reqs[next:next+between])
		next += between
		b.StartTimer()
		if _, err := s.Stats(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerObject times one Object read of the most popular object
// of a 64- and a 16,384-object catalog, each after 20,000 admissions: the
// object's shard answers its one row, so the read costs the same at
// either size.
func BenchmarkServerObject(b *testing.B) {
	for _, k := range []int{64, 16384} {
		b.Run(fmt.Sprintf("objects=%d", k), func(b *testing.B) {
			cat := multiobject.ZipfCatalog(k, 1, 0.02, 1)
			s, err := New(Config{Catalog: cat, Shards: 2, DefaultStrategy: "offline-batched", MeterStages: true})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			submitChunked(b, s, zipfHistory(b, cat, 20000))
			name := cat[0].Name
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Object(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
