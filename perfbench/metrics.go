package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// rpcStems are the RPCs the per-layer metrics break out; every RPC,
// listed or not, counts towards transport.wait_s and bytes_ratio.
var rpcStems = []string{
	"kvstore.batchhas", "kvstore.batchput",
	"cloudstore.batchupload", "cloudstore.putmanifest",
	"cloudstore.getrecipe", "cloudstore.getcontainer",
}

func mb(b int64) float64 { return float64(b) / 1e6 }

// rate returns MB per second, or NaN for an empty phase.
func rate(bytes int64, wall time.Duration) float64 {
	if wall <= 0 {
		return math.NaN()
	}
	return mb(bytes) / wall.Seconds()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median ignores NaNs; it is NaN when nothing remains.
func median(v []float64) float64 {
	var s []float64
	for _, x := range v {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank q-quantile of d, in milliseconds.
func percentile(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := slices.Clone(d)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)]) / 1e6
}

// latencyWindow is the fewest streams a latency percentile is taken
// over: at p95 it leaves at least 10 samples beyond the percentile.
const latencyWindow = 200

// windowedPercentile cuts the per-round latencies, in round order, into
// windows of at least latencyWindow streams, takes the q-quantile of
// each, and returns the median. A host hiccup then moves one window's
// tail instead of the whole run's; leftover streams too few for a
// window of their own join the last one.
func windowedPercentile(perRound [][]time.Duration, q float64) float64 {
	var windows [][]time.Duration
	var cur []time.Duration
	for _, lat := range perRound {
		cur = append(cur, lat...)
		if len(cur) >= latencyWindow {
			windows = append(windows, cur)
			cur = nil
		}
	}
	if len(windows) == 0 {
		return percentile(cur, q)
	}
	windows[len(windows)-1] = append(windows[len(windows)-1], cur...)
	var ps []float64
	for _, w := range windows {
		ps = append(ps, percentile(w, q))
	}
	return median(ps)
}

// endToEnd computes the metrics a user of the system sees, from the
// untraced rounds. Rates are medians of per-round values; latencies are
// medians of windowed percentiles (see windowedPercentile).
func endToEnd(rounds []*round) map[string]metric {
	var ingestR, restoreR, wan, stored, alloc, cpu, setup []float64
	var lat [][]time.Duration
	for _, r := range rounds {
		if r.traced {
			continue
		}
		ingestR = append(ingestR, rate(r.ingest.bytes, r.ingest.wall))
		restoreR = append(restoreR, rate(r.restore.bytes, r.restore.wall))
		wan = append(wan, ratio(float64(r.uploaded), float64(r.allBytes)))
		stored = append(stored, ratio(float64(r.stored), float64(r.allBytes)))
		alloc = append(alloc, ratio(float64(r.proc.totalAlloc), float64(r.ingest.bytes)))
		cpu = append(cpu, ratio(r.proc.cpu.Seconds(), float64(r.ingest.bytes)/1e9))
		setup = append(setup, r.setup.Seconds())
		lat = append(lat, r.ingest.lat)
	}
	return map[string]metric{
		"ingest_mb_s":          {median(ingestR), "MB/s"},
		"stream_p50_ms":        {windowedPercentile(lat, 0.50), "ms"},
		"stream_p95_ms":        {windowedPercentile(lat, 0.95), "ms"},
		"restore_mb_s":         {median(restoreR), "MB/s"},
		"wan_bytes_ratio":      {median(wan), "ratio"},
		"stored_bytes_ratio":   {median(stored), "ratio"},
		"alloc_bytes_per_byte": {median(alloc), "B/B"},
		"cpu_s_per_gb":         {median(cpu), "s/GB"},
		"peak_rss_mb":          {peakRSSMiB(), "MiB"},
		"setup_s":              {median(setup), "s"},
	}
}

// perLayer computes the per-layer metrics from the traced rounds' spans
// and counters. Times and counts are per round (one round is a fixed
// amount of work); rates and fractions are over all traced rounds.
func perLayer(rounds []*round, spans []Span, inputs [][]byte) (map[string]metric, error) {
	var traced []*round
	for _, r := range rounds {
		if r.traced {
			traced = append(traced, r)
		}
	}
	if len(traced) == 0 {
		return nil, fmt.Errorf("no traced round completed")
	}
	n := float64(len(traced))
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	var tracedR, plainR []float64
	for _, r := range rounds {
		if r.traced {
			tracedR = append(tracedR, rate(r.ingest.bytes, r.ingest.wall))
		} else {
			plainR = append(plainR, rate(r.ingest.bytes, r.ingest.wall))
		}
	}
	set("trace_overhead_frac", 1-median(tracedR)/median(plainR), "ratio")

	var ingestBytes, restoreBytes, allBytes, inputChunks, dupChunks, degraded int64
	var touched, hits, misses, restores, sealed, local, remote, wal, disk, inter int64
	var proc procSample
	hist := histSample{}
	var recovery []float64
	var failed, attempted int
	for _, r := range rounds {
		if r.recovery > 0 {
			recovery = append(recovery, r.recovery.Seconds())
		}
	}
	for _, r := range traced {
		ingestBytes += r.ingest.bytes
		restoreBytes += r.restore.bytes
		allBytes += r.allBytes
		for _, rep := range r.ingest.reports {
			inputChunks += rep.InputChunks
			dupChunks += rep.DuplicateChunks
			degraded += rep.DegradedLookups
		}
		for _, st := range r.restore.stats {
			touched += int64(st.ContainersTouched)
			hits += st.CacheHits
			misses += st.CacheMisses
			restores++
		}
		sealed += r.containersSealed
		local += r.local
		remote += r.remote
		wal += r.walBytes
		disk += r.diskBytes
		inter += r.interSite
		proc.addTo(r.proc)
		for k, v := range r.hist {
			hist[k] += v
		}
		failed += len(r.failures)
		attempted += r.attempted()
	}

	// chunk and agent.emit, from the chunker wrapper's spans.
	self := selfTimes(spans)
	var scanBytes, scanChunks, scanSelf, emitNs int64
	type rpcAgg struct{ calls, clientNs, serverNs, bytes int64 }
	rpcs := map[string]*rpcAgg{}
	rpc := func(stem string) *rpcAgg {
		if rpcs[stem] == nil {
			rpcs[stem] = &rpcAgg{}
		}
		return rpcs[stem]
	}
	var clientNs, serverNs, wireBytes int64
	for _, s := range spans {
		if s.Name == "chunk.scan" {
			scanBytes += s.Bytes
			scanChunks += s.Count
			scanSelf += self[s.ID]
		} else if s.Name == "agent.emit" {
			emitNs += s.Dur()
		} else if stem, ok := strings.CutSuffix(s.Name, ".client"); ok {
			a := rpc(stem)
			a.calls++
			a.clientNs += s.Dur()
			a.bytes += s.Bytes
			clientNs += s.Dur()
			wireBytes += s.Bytes
		} else if stem, ok := strings.CutSuffix(s.Name, ".server"); ok {
			rpc(stem).serverNs += s.Dur()
			serverNs += s.Dur()
		}
	}
	set("chunk.scan_mb_s", ratio(mb(scanBytes), float64(scanSelf)/1e9), "MB/s")
	set("chunk.chunks", float64(scanChunks)/n, "count")
	set("chunk.mean_chunk_bytes", ratio(float64(scanBytes), float64(scanChunks)), "B")
	sha, err := sha256Replay(inputs)
	if err != nil {
		return m, err
	}
	set("chunk.sha256_mb_s", sha, "MB/s")

	set("agent.emit_block_s", float64(emitNs)/1e9/n, "s")
	for k := range agentHists {
		set(k, hist[k]/n, "s")
	}
	set("agent.dup_chunk_frac", ratio(float64(dupChunks), float64(inputChunks)), "ratio")
	set("agent.degraded_lookups", float64(degraded)/n, "count")

	for _, stem := range rpcStems {
		a := rpc(stem)
		set(stem+".calls", float64(a.calls)/n, "count")
		set(stem+".client_s", float64(a.clientNs)/1e9/n, "s")
		set(stem+".server_s", float64(a.serverNs)/1e9/n, "s")
		set(stem+".bytes", float64(a.bytes)/n, "B")
	}
	set("cloudstore.restore_fetch_ratio", ratio(float64(rpc("cloudstore.getcontainer").bytes), float64(restoreBytes)), "ratio")
	set("cloudstore.restore_containers_per_stream", ratio(float64(touched), float64(restores)), "count")
	set("cloudstore.restore_cache_hit_frac", ratio(float64(hits), float64(hits+misses)), "ratio")
	set("cloudstore.containers_sealed", float64(sealed)/n, "count")

	set("kvstore.remote_lookup_frac", ratio(float64(remote), float64(local+remote)), "ratio")
	set("model.remote_lookup_frac", 1-float64(gamma)/float64(traced[0].members), "ratio")
	set("kvstore.wal_bytes_ratio", ratio(float64(wal), float64(allBytes)), "ratio")
	set("disk_bytes_ratio", ratio(float64(disk), float64(allBytes)), "ratio")
	rec := median(recovery)
	if math.IsNaN(rec) {
		rec = 0
	}
	set("recovery_s", rec, "s")

	set("transport.wait_s", float64(clientNs-serverNs)/1e9/n, "s")
	set("transport.bytes_ratio", ratio(float64(wireBytes), float64(ingestBytes)), "ratio")
	set("netem.inter_site_bytes_ratio", ratio(float64(inter), float64(ingestBytes)), "ratio")
	set("proc.write_bytes_ratio", ratio(float64(proc.wchar), float64(ingestBytes)), "ratio")
	set("proc.write_syscalls_per_mb", ratio(float64(proc.syscw), mb(ingestBytes)), "1/MB")
	set("proc.gc_cycles", float64(proc.numGC)/n, "count")
	set("proc.gc_pause_ms", float64(proc.pauseNs)/1e6/n, "ms")
	set("error_rate", ratio(float64(failed), float64(max(attempted, 1))), "ratio")
	return m, nil
}

func printTable(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %-44s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
