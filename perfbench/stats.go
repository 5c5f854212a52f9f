package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs
// in milliseconds; xs is sorted in place.
func percentile(xs []time.Duration, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(p/100*float64(len(xs))+0.999999) - 1
	rank = max(0, min(rank, len(xs)-1))
	return ms(xs[rank])
}

// median returns the median of xs (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), so the
// spreads printed by -steady match what an outside checker computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(j int) float64 {
		// position j*(n+1)/4, 1-based, linearly interpolated
		m := float64(j) * float64(n+1) / 4
		k := int(m)
		frac := m - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + frac*(s[k]-s[k-1])
	}
	return at(1), at(3)
}

// procStatusKB reads one "Name:  N kB" field of /proc/<pid>/status.
func procStatusKB(pid, field string) (int64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			fs := strings.Fields(rest)
			if len(fs) == 0 {
				break
			}
			return strconv.ParseInt(fs[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s not found in /proc/%s/status", field, pid)
}

// peakRSSMB returns the peak resident set (VmHWM) of a process in MiB.
func peakRSSMB(pid string) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return float64(kb) / 1024, err
}

// resetPeakRSS restarts the kernel's peak-RSS watermark of a process at its
// current RSS, so a later peakRSSMB covers only what happens after it.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}
