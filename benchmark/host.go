package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo identifies the machine a result came from, so an outlier run
// can be traced to the host.
type hostInfo struct {
	CPUModel   string
	NProc      int
	GOMAXPROCS int
	Go         string
	Kernel     string
}

func readHost() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// cpuStat is the host-wide CPU time split from /proc/stat, in jiffies.
type cpuStat struct {
	steal, total uint64
}

// readCPUStat reads the aggregate "cpu" line of /proc/stat.  On a host
// without it the zero value makes stealPct report 0.
func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	// user nice system idle iowait irq softirq steal: guest time is
	// already included in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stealPct is the share of host CPU time the hypervisor took between two
// readings.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// processCPU is this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample holds the runtime/metrics counters the benchmark reads.
type runtimeSample struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64 // seconds
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: sampleValue(s[0]),
		gcCycles:   sampleValue(s[1]),
		gcCPU:      sampleValue(s[2]),
	}
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// liveHeap forces collection and returns the live heap in bytes as the
// finished cycle marked it.  Two cycles also empty sync.Pool victims.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return sampleValue(s[0])
}

// phaseMeter brackets a measured phase: server-process CPU, host steal
// and runtime counters at its start.
type phaseMeter struct {
	wall  time.Time
	cpu   time.Duration
	steal cpuStat
	rt    runtimeSample
}

func startMeter() phaseMeter {
	return phaseMeter{wall: time.Now(), cpu: processCPU(), steal: readCPUStat(), rt: readRuntime()}
}

// phaseCost is what the process spent over a phase.
type phaseCost struct {
	wall, cpu  time.Duration
	stealPct   float64
	allocBytes float64
	gcCycles   float64
	gcCPU      time.Duration
}

func (m phaseMeter) stop() phaseCost {
	rt := readRuntime()
	return phaseCost{
		wall:       time.Since(m.wall),
		cpu:        processCPU() - m.cpu,
		stealPct:   stealPct(m.steal, readCPUStat()),
		allocBytes: rt.allocBytes - m.rt.allocBytes,
		gcCycles:   rt.gcCycles - m.rt.gcCycles,
		gcCPU:      time.Duration((rt.gcCPU - m.rt.gcCPU) * 1e9),
	}
}

func (c *phaseCost) add(o phaseCost) {
	c.wall += o.wall
	c.cpu += o.cpu
	c.allocBytes += o.allocBytes
	c.gcCycles += o.gcCycles
	c.gcCPU += o.gcCPU
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(q*float64(len(sorted)))) - 1
	if r < 0 {
		r = 0
	}
	if r >= len(sorted) {
		r = len(sorted) - 1
	}
	return sorted[r]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// supportedTail names the highest of p99 and p99.9 that has at least ten
// samples beyond it, or "" when neither has.
func supportedTail(n int) string {
	switch {
	case n >= 10000:
		return "p99.9"
	case n >= 1000:
		return "p99"
	}
	return ""
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func fmtHost(h hostInfo) string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s", h.CPUModel, h.NProc, h.GOMAXPROCS, h.Go, h.Kernel)
}
