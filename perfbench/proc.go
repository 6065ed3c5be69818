package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is a point-in-time reading of the process counters the
// benchmark takes deltas of: CPU, heap allocation, GC and write I/O.
type procSample struct {
	cpu        time.Duration // user + system
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
	wchar      int64 // bytes passed to write-family syscalls
	syscw      int64 // write-family syscalls
}

func sampleProc() procSample {
	var s procSample
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc, s.numGC, s.pauseNs = ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	io := readKV("/proc/self/io")
	s.wchar, s.syscw = io["wchar"], io["syscw"]
	return s
}

func (s procSample) sub(o procSample) procSample {
	return procSample{
		cpu:        s.cpu - o.cpu,
		totalAlloc: s.totalAlloc - o.totalAlloc,
		numGC:      s.numGC - o.numGC,
		pauseNs:    s.pauseNs - o.pauseNs,
		wchar:      s.wchar - o.wchar,
		syscw:      s.syscw - o.syscw,
	}
}

func (s *procSample) addTo(o procSample) {
	s.cpu += o.cpu
	s.totalAlloc += o.totalAlloc
	s.numGC += o.numGC
	s.pauseNs += o.pauseNs
	s.wchar += o.wchar
	s.syscw += o.syscw
}

// peakRSSMiB returns the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	return float64(readKV("/proc/self/status")["VmHWM"]) / 1024 // kB -> MiB
}

// readKV parses "key: value [unit]" lines; unreadable files yield an
// empty map, so the counters read as zero.
func readKV(path string) map[string]int64 {
	out := make(map[string]int64)
	f, err := os.Open(path)
	if err != nil {
		return out
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		fields := strings.Fields(v)
		if len(fields) == 0 {
			continue
		}
		if n, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
			out[k] = n
		}
	}
	return out
}
