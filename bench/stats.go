package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// samples; an empty sample is 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// samplesBeyond is the number of samples strictly above the nearest-rank
// p-quantile position of an n-sample set.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// minTailSamples is the choosing-metrics rule: a percentile is reported
// only when at least this many samples lie beyond it.
const minTailSamples = 10

// supported reports whether an n-sample set may report percentile p.
func supported(n int, p float64) bool { return samplesBeyond(n, p) >= minTailSamples }

// median sorts a copy of v and returns its middle value.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return percentile(s, 0.5)
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (exclusive
// method), the rule the acceptance check uses for run-to-run spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// calibrator measures the host's speed during a run with a fixed piece
// of work that belongs to the benchmark, not to the program under test:
// both CPUs build, sort and index a few thousand short strings, which is
// allocation- and memory-bound the way the join engine is. It keeps every
// repetition's time.
type calibrator struct {
	reps []time.Duration
}

// run repeats the calibration work and returns the fastest repetition,
// the figure least touched by short interference.
func (c *calibrator) run(reps int) time.Duration {
	fastest := time.Duration(math.MaxInt64)
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				calibSink.Add(calibWork())
			}()
		}
		wg.Wait()
		d := time.Since(start)
		c.reps = append(c.reps, d)
		fastest = min(fastest, d)
	}
	return fastest
}

// floor is the host's speed over the whole run: the mean of the
// floorReps fastest repetitions, steadier than the single fastest.
func (c *calibrator) floor() time.Duration { return floorOf(c.reps) }

// drifted reports whether the host's speed moved by more than 5 % between
// the first and the second half of the run.
func (c *calibrator) drifted() bool {
	a, b := floorOf(c.reps[:len(c.reps)/2]), floorOf(c.reps[len(c.reps)/2:])
	return max(a, b) > min(a, b)*105/100
}

func floorOf(reps []time.Duration) time.Duration {
	s := slices.Clone(reps)
	slices.Sort(s)
	s = s[:min(floorReps, len(s))]
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

const (
	// runCalibReps calibrations bracket every run, sliceCalibReps sit
	// between the slices of a measured run.
	runCalibReps   = 20
	sliceCalibReps = 12
	floorReps      = 5
)

// nominalCalib is the calibration floor on a quiet host of the speed this
// benchmark was sized on.
const nominalCalib = 4700 * time.Microsecond

// hostFactor is how much slower than nominal the host was during the
// run. Phases in which the whole machine runs 10-40 % slow for a minute
// or more slow the calibration along with the program; dividing a run's
// times by its host factor reads them as a quiet host would have
// produced them.
func (c *calibrator) hostFactor() float64 {
	return float64(c.floor()) / float64(nominalCalib)
}

func calibWork() uint64 {
	const n = 15000
	recs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, strconv.Itoa(i*7919%n)+"|"+strconv.Itoa(i)+","+strconv.Itoa(i+50))
	}
	slices.Sort(recs)
	index := make(map[string]int, n)
	for i, r := range recs {
		index[r] = i
	}
	var sum uint64
	for _, r := range recs[:n/2] {
		sum += uint64(index[r] + len(r))
	}
	return sum
}

// calibSink keeps the compiler from dropping work whose result is unused.
var calibSink atomic.Uint64

// selfCPU is the user+system CPU time this process has consumed.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU fields; Linux
// fixes it at 100 on every supported architecture.
const clockTick = 10 * time.Millisecond

// procCPU is the user+system CPU time of another process, from
// /proc/<pid>/stat (fields 14 and 15, counted after the parenthesised
// command name, which may itself contain spaces).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after the command", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields %q %q", pid, f[11], f[12])
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procStatusKB reads one "Vm*" line of /proc/<pid>/status, in kB.
func procStatusKB(pid int, key string) (int64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s line", pid, key)
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB(pid int) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return float64(kb) / 1024, err
}

// resetPeakRSS restarts a process's resident-set high-water mark from its
// current size, so that the next reading is the peak since now. Where the
// kernel does not offer this the readings stay peaks since the process
// began, which only makes the slices agree more.
func resetPeakRSS(pid int) {
	// The error is the kernel lacking the file or refusing the write.
	_ = os.WriteFile("/proc/"+strconv.Itoa(pid)+"/clear_refs", []byte("5"), 0)
}

// selfAlloc is the cumulative bytes this process has heap-allocated.
func selfAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// runSlices is how many slices a measured run is cut into, with the
// host calibrated between them.
const runSlices = 10

// slice is one stretch of a measured run: what a run of a tenth the
// length would have reported, and how fast the host was around it.
type slice struct {
	Ops       int     `json:"ops"`
	P50       float64 `json:"p50_ms"`
	OpsPerS   float64 `json:"ops_per_s"`
	CPUSPerOp float64 `json:"cpu_s_per_op"`
	CalibMS   float64 `json:"calib_ms"`    // the faster of the calibrations before and after
	PeakRSSMB float64 `json:"peak_rss_mb"` // high-water mark of the process executing the joins within the slice
}

// steady reduces a run's slices to one value of a field. For a stationary
// workload that is the best slice (lowest, or with higher set the
// highest): interference that comes and goes within seconds slows some
// slices and not others, and the best slice is the program with the host
// out of the way, which repeats where the whole-run figure does not. For a
// workload whose state grows with every op (trending) the slices are not
// comparable — the first is always the best — so the median slice stands
// for the run.
func steady(sl []slice, field func(slice) float64, higher, trending bool) float64 {
	vals := make([]float64, len(sl))
	for i, s := range sl {
		vals[i] = field(s)
	}
	switch {
	case trending:
		return median(vals)
	case higher:
		return slices.Max(vals)
	}
	return slices.Min(vals)
}

func sliceOf(p *pass, calib time.Duration) slice {
	lat := p.sortedLat()
	ops := float64(p.ops())
	s := slice{
		Ops:     p.ops(),
		P50:     percentile(lat, 0.5),
		OpsPerS: ops / p.wall.Seconds(),
		CalibMS: ms(calib),
	}
	// A child's CPU time comes in clock ticks; a slice too short to span
	// a few dozen of them has no CPU figure of its own.
	if p.cpu >= minSliceCPU {
		s.CPUSPerOp = p.cpu.Seconds() / ops
	}
	return s
}

const minSliceCPU = 25 * clockTick

// cpuPerOp is the steady CPU time per op over the slices long enough to
// have one, or the whole stretch's when none is.
func cpuPerOp(sl []slice, all *pass, trending bool) float64 {
	var resolved []slice
	for _, s := range sl {
		if s.CPUSPerOp > 0 {
			resolved = append(resolved, s)
		}
	}
	if len(resolved) == 0 {
		return all.cpu.Seconds() / float64(all.ops())
	}
	return steady(resolved, func(s slice) float64 { return s.CPUSPerOp }, false, trending)
}
