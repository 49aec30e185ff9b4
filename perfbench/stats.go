package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"webrev/internal/repository"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer is noise, so it is refused.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1): the
// smallest sample with at least a share q of the samples at or below it.
// It fails when fewer than minBeyond samples lie above that rank.
func percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %.2f of %d samples", q, len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if beyond := len(s) - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, len(s), beyond, minBeyond)
	}
	return s[rank-1], nil
}

// median is the middle sample (the mean of the middle two for an even
// count); a run-level summary of a few repeats, not a latency percentile.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS returns the heap set-up left behind to the OS and restarts
// the kernel's peak-RSS watermark (VmHWM), so a later peakRSSMB covers the
// timed phase only.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set since the last reset.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTimes is a reading of the Go runtime's CPU accounting.
type cpuTimes struct{ gc, total float64 }

func readCPU() cpuTimes {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuTimes{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// gcShare is the share of CPU time the garbage collector took between two
// readings.
func gcShare(a, b cpuTimes) float64 { return ratio(b.gc-a.gc, b.total-a.total) }

// digest hashes a repository's DTD and every document's name and canonical
// XML, in order: two repositories with equal digests are byte-identical.
func digest(r *repository.Repository) (string, error) {
	h := sha256.New()
	h.Write([]byte(r.DTD().Render()))
	for i := 0; i < r.Len(); i++ {
		xml, err := r.Store().XML(i)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "\x00%s\x00", r.Store().Name(i))
		h.Write(xml)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		if e.IsDir() {
			sub, err := dirBytes(filepath.Join(dir, e.Name()))
			if err != nil {
				return 0, err
			}
			n += sub
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// repeats gathers a run's repeats — one build, one pass over the recrawl
// schedule, one serve round: each repeat's throughput, and its latency
// samples pooled with those of the other repeats. A serve round's p99 hangs
// on the one snapshot swap inside it, so a percentile over the pooled
// samples of every round varies less between runs than the median of the
// rounds' own percentiles.
type repeats struct {
	lat, rate []float64
}

// add records one repeat's latency samples xs (ms) and its throughput.
func (rs *repeats) add(xs []float64, rate float64) {
	rs.lat = append(rs.lat, xs...)
	rs.rate = append(rs.rate, rate)
}

// report sets throughput_per_s to the median of the repeats' throughputs,
// and p50_ms and tail_ms to the median and the tailQ percentile of the
// pooled latency samples.
func (rs *repeats) report(r *report, tailQ float64) error {
	p50, err := percentile(rs.lat, 0.5)
	if err != nil {
		return err
	}
	tail, err := percentile(rs.lat, tailQ)
	if err != nil {
		return err
	}
	r.set("throughput_per_s", median(rs.rate), "1/s", len(rs.rate))
	r.set("p50_ms", p50, "ms", len(rs.lat))
	r.set("tail_ms", tail, "ms", len(rs.lat))
	return nil
}
