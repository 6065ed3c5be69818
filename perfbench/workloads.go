package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"efdedup/internal/agent"
	"efdedup/internal/chunk"
	"efdedup/internal/metrics"
	"efdedup/internal/workload"
)

// Sizes. Every round of a workload does the same fixed work on inputs
// regenerated from the seed, so per-round counts repeat exactly and
// per-round rates are independent samples.
const (
	clients     = 2         // closed-loop backup clients per workload
	streamBytes = 256 << 10 // warm-dedup and cold-ingest stream size

	warmStreams       = 128 // 32 MiB input set
	warmPasses        = 8   // timed re-ingests of the set per round
	warmRestoreSample = 32

	coldStreams = 128 // 32 MiB of fresh data per round, all restored

	vmImages  = 4 // VMs; client c backs up VMs 2c and 2c+1
	vmBackups = 6 // backups per VM per round, ingested in chain order

	// chainContainerBytes is the cloud container size of backup-chain:
	// a 1 MiB image then spans at least 16 containers, twice the
	// restore cache (cloudstore.DefaultRestoreCacheContainers).
	chainContainerBytes = 64 << 10

	edgeRestoreSample = 8
)

// vmDataset is the backup-chain and edge-ring image geometry:
// workload.DefaultVMImageDataset's 1 MiB images (192 base + 48 app +
// 16 instance blocks of 4 KiB, 3% of blocks mutated per backup) on four
// VMs of two OS families.
func vmDataset(seed int64) *workload.VMImageDataset {
	ds := workload.DefaultVMImageDataset(seed)
	ds.Nodes = vmImages
	return ds
}

// round is one setup + timed phases + output checks of a workload, with
// the raw counts its metrics are computed from.
type round struct {
	traced bool
	setup  time.Duration

	ingest  ingestPhase // timed ingest (warm-dedup: every pass)
	restore restorePhase
	proc    procSample // over timed ingest
	hist    histSample // over timed ingest
	spans   []Span     // timed phases only

	// Ratio bases and numerators over everything the round's deployment
	// ingested, warm-dedup's untimed pre-warm pass included.
	allBytes int64
	uploaded int64
	stored   int64

	checks   int      // output checks beyond per-stream and per-restore ones
	failures []string // failed streams, restores and checks

	containersSealed int64
	local, remote    int64 // index lookups over timed ingest
	members          int
	walBytes         int64
	diskBytes        int64
	recovery         time.Duration
	interSite        int64 // netem inter-site bytes over timed ingest

	inputs [][]byte // the round's distinct inputs, for the SHA-256 replay
}

// attempted counts the round's streams, restores and output checks.
func (r *round) attempted() int {
	return len(r.ingest.reports) + len(r.ingest.errs) + len(r.restore.stats) + len(r.restore.errs) + r.checks
}

func (r *round) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// histSample holds the agent's own stage-time histogram sums (seconds).
type histSample map[string]float64

var agentHists = map[string]string{
	"agent.lookup_s":         "agent_lookup_seconds",
	"agent.upload_s":         "agent_upload_seconds",
	"agent.insert_s":         "agent_index_insert_seconds",
	"agent.manifest_s":       "agent_manifest_put_seconds",
	"agent.admission_wait_s": "agent_stream_admission_wait_seconds",
}

func sampleHists() histSample {
	out := make(histSample, len(agentHists))
	for metric, name := range agentHists {
		out[metric] = metrics.Default().DurationHistogram(name, "mode", agent.ModeRing.String()).Snapshot().Sum
	}
	return out
}

// timedIngest runs fn as the round's timed ingest window: tracing on,
// and process, histogram, lookup and link counters taken around it.
func (r *round) timedIngest(d *deployment, fn func()) {
	tr := d.cfg.tr
	if tr != nil {
		tr.on.Store(true)
	}
	var inter0 int64
	if d.topo != nil {
		inter0 = d.topo.TotalInterSiteBytes()
	}
	l0, rem0 := d.lookupStats()
	h0, p0 := sampleHists(), sampleProc()
	fn()
	p1, h1 := sampleProc(), sampleHists()
	l1, rem1 := d.lookupStats()
	r.proc.addTo(p1.sub(p0))
	if r.hist == nil {
		r.hist = make(histSample)
	}
	for k, v := range h1 {
		r.hist[k] += v - h0[k]
	}
	r.local += l1 - l0
	r.remote += rem1 - rem0
	if d.topo != nil {
		r.interSite += d.topo.TotalInterSiteBytes() - inter0
	}
	if tr != nil {
		tr.on.Store(false)
	}
}

// timedRestore runs a restore phase with tracing on.
func (r *round) timedRestore(d *deployment, clients [][]stream) {
	tr := d.cfg.tr
	if tr != nil {
		tr.on.Store(true)
	}
	ph := restore(context.Background(), tr, d.clients, clients)
	if tr != nil {
		tr.on.Store(false)
	}
	r.restore.bytes += ph.bytes
	r.restore.wall += ph.wall
	r.restore.stats = append(r.restore.stats, ph.stats...)
	r.restore.errs = append(r.restore.errs, ph.errs...)
	r.failures = append(r.failures, ph.errs...)
}

func (r *round) addIngest(ph ingestPhase) {
	r.ingest.bytes += ph.bytes
	r.ingest.wall += ph.wall
	r.ingest.lat = append(r.ingest.lat, ph.lat...)
	r.ingest.reports = append(r.ingest.reports, ph.reports...)
	r.ingest.errs = append(r.ingest.errs, ph.errs...)
	r.failures = append(r.failures, ph.errs...)
	for _, rep := range ph.reports {
		r.allBytes += rep.InputBytes
		r.uploaded += rep.UploadedBytes
	}
}

// finish records the end-of-round store state, takes the spans and
// stops the deployment.
func (r *round) finish(d *deployment) {
	st := d.cloud.Stats()
	r.stored = st.UniqueBytes + st.DuplicatedBytes
	r.containersSealed = st.ContainersSealed
	r.members = len(d.kvAddrs)
	if d.cfg.tr != nil {
		r.spans = d.cfg.tr.take()
	}
	if err := d.close(); err != nil {
		r.fail("close deployment: %v", err)
	}
}

// runEnv is what a workload round gets from the run.
type runEnv struct {
	seed    int64
	workdir string
	round   int
	tr      *Tracer // nil for untraced rounds
	// warmManifests caches warm-dedup's reference manifests, computed
	// once per run from the (identical) per-round inputs.
	warmManifests [][]chunk.ID
}

type workloadSpec struct {
	name string
	run  func(env *runEnv, r *round) error
}

var workloadSpecs = []workloadSpec{
	{"warm-dedup", runWarm},
	{"cold-ingest", runCold},
	{"backup-chain", runChain},
	{"edge-ring", runEdge},
}

// randomStreams generates n fresh streams of streamBytes whose contents
// depend only on (seed, tag, index).
func randomStreams(seed int64, tag string, n int) []stream {
	base := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(len(tag))<<56
	for _, c := range tag {
		base = base*31 + uint64(c)
	}
	out := make([]stream, n)
	for i := range out {
		data := make([]byte, streamBytes)
		fillRandom(data, base+uint64(i+1)*0xD1B54A32D192ED03)
		out[i] = stream{name: fmt.Sprintf("%s/s%03d", tag, i), data: data}
	}
	return out
}

func memConfig(tr *Tracer) deployConfig {
	return deployConfig{sites: []string{"edge", "edge", "edge"}, agentsAt: []int{0}, tr: tr}
}

// sample returns k distinct elements of s chosen by a generator seeded
// from seed alone, so every round restores the same streams.
func sample(s []stream, k int, seed int64) []stream {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	idx := rng.Perm(len(s))[:min(k, len(s))]
	slices.Sort(idx)
	out := make([]stream, len(idx))
	for i, j := range idx {
		out[i] = s[j]
	}
	return out
}

// runWarm: an all-duplicate re-ingest. The input set is ingested once in
// setup, then warmPasses times under the timer; every lookup hits and
// nothing is uploaded.
func runWarm(env *runEnv, r *round) error {
	ctx := context.Background()
	t0 := time.Now()
	base := randomStreams(env.seed, "warm", warmStreams)
	passes := make([][]stream, warmPasses)
	for p := range passes {
		passes[p] = make([]stream, len(base))
		for i, s := range base {
			passes[p][i] = stream{name: fmt.Sprintf("pass%d/%s", p+1, s.name), data: s.data}
		}
	}
	d, err := deploy(memConfig(env.tr))
	if err != nil {
		return err
	}
	pre := ingest(ctx, env.tr, d.agents, splitClients(base, clients))
	r.setup = time.Since(t0)
	r.failures = append(r.failures, pre.errs...)
	for _, rep := range pre.reports {
		r.allBytes += rep.InputBytes
		r.uploaded += rep.UploadedBytes
	}

	r.timedIngest(d, func() {
		for _, p := range passes {
			r.addIngest(ingest(ctx, env.tr, d.agents, splitClients(p, clients)))
		}
	})
	r.timedRestore(d, splitClients(sample(base, warmRestoreSample, env.seed), clients))

	// Checks: nothing uploaded, and every manifest equals an independent
	// split + hash of its input.
	var up int64
	for _, rep := range r.ingest.reports {
		up += rep.UploadedChunks
	}
	r.checks++
	if up != 0 {
		r.fail("warm passes uploaded %d chunks, want 0", up)
	}
	if env.warmManifests == nil {
		for _, s := range base {
			ids, err := referenceManifest(s.data)
			if err != nil {
				d.close()
				return err
			}
			env.warmManifests = append(env.warmManifests, ids)
		}
	}
	for _, p := range passes {
		for i, s := range p {
			r.checks++
			got, err := d.clients[0].GetManifest(ctx, s.name)
			if err != nil {
				r.fail("manifest %s: %v", s.name, err)
			} else if !slices.Equal(got, env.warmManifests[i]) {
				r.fail("manifest %s differs from the reference split", s.name)
			}
		}
	}
	for _, s := range base {
		r.inputs = append(r.inputs, s.data)
	}
	r.finish(d)
	return nil
}

// referenceManifest is the manifest an agent must store for data,
// computed without the agent: chunk.SplitBytes with the default gear
// geometry, then chunk.Sum of each payload.
func referenceManifest(data []byte) ([]chunk.ID, error) {
	chunks, err := chunk.SplitBytes(chunk.NewDefaultGearChunker(), data)
	if err != nil {
		return nil, err
	}
	ids := make([]chunk.ID, len(chunks))
	for i, c := range chunks {
		ids[i] = chunk.Sum(c.Data)
	}
	return ids, nil
}

// runCold: fresh data only. Every chunk misses, is uploaded, indexed and
// packed; then every stream is restored.
func runCold(env *runEnv, r *round) error {
	ctx := context.Background()
	t0 := time.Now()
	streams := randomStreams(env.seed, "cold", coldStreams)
	d, err := deploy(memConfig(env.tr))
	if err != nil {
		return err
	}
	r.setup = time.Since(t0)

	r.timedIngest(d, func() {
		r.addIngest(ingest(ctx, env.tr, d.agents, splitClients(streams, clients)))
	})
	d.cloud.FlushContainers()
	r.timedRestore(d, splitClients(streams, clients))
	for _, s := range streams {
		r.inputs = append(r.inputs, s.data)
	}
	r.finish(d)
	return nil
}

// vmChains generates vmBackups backups of every VM and deals them to the
// clients: client c gets VMs 2c and 2c+1, in backup order, so each
// client sees one image of each OS family per backup generation. It
// also returns each VM's latest backup.
func vmChains(seed int64, prefix string) (perClient [][]stream, latest []stream) {
	ds := vmDataset(seed)
	perClient = make([][]stream, clients)
	latest = make([]stream, ds.Nodes)
	for k := 0; k < vmBackups; k++ {
		for vm := 0; vm < ds.Nodes; vm++ {
			s := stream{name: fmt.Sprintf("%s/vm%d/backup%d", prefix, vm, k), data: ds.File(vm, k)}
			perClient[vm/2%clients] = append(perClient[vm/2%clients], s)
			latest[vm] = s
		}
	}
	return perClient, latest
}

// runChain: durable stores. A backup chain is ingested, both stores are
// reopened from disk, and every VM's latest backup is restored.
func runChain(env *runEnv, r *round) error {
	ctx := context.Background()
	t0 := time.Now()
	perClient, latest := vmChains(env.seed, "chain")
	dir := filepath.Join(env.workdir, fmt.Sprintf("chain-%d-%d", os.Getpid(), env.round))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := deployConfig{sites: []string{"edge", "edge", "edge"}, agentsAt: []int{0}, dir: dir, containerBytes: chainContainerBytes, tr: env.tr}
	d, err := deploy(cfg)
	if err != nil {
		return err
	}
	r.setup = time.Since(t0)

	r.timedIngest(d, func() {
		r.addIngest(ingest(ctx, env.tr, d.agents, perClient))
	})
	r.recovery, err = d.reopen()
	if err != nil {
		r.fail("reopen stores: %v", err)
		d.close()
		return nil
	}
	r.timedRestore(d, splitClients(latest, clients))

	r.diskBytes, r.walBytes = storeBytes(dir)
	for _, c := range perClient {
		for _, s := range c {
			r.inputs = append(r.inputs, s.data)
		}
	}
	r.finish(d)
	return nil
}

// storeBytes sums the file sizes under dir, and separately those of the
// kv WALs and snapshots.
func storeBytes(dir string) (all, wal int64) {
	filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil
		}
		info, err := e.Info()
		if err != nil {
			return nil
		}
		all += info.Size()
		if strings.Contains(e.Name(), ".wal") {
			wal += info.Size()
		}
		return nil
	})
	return all, wal
}

// runEdge: the paper's testbed shape. One D2-ring of 4 kv nodes on two
// sites, netem-shaped links, and 2 agents ingesting VM backup chains, so
// half of all index lookups leave the node.
func runEdge(env *runEnv, r *round) error {
	ctx := context.Background()
	t0 := time.Now()
	perClient, _ := vmChains(env.seed, "edge")
	cfg := deployConfig{
		sites:    []string{"site-a", "site-a", "site-b", "site-b"},
		agentsAt: []int{0, 2},
		tr:       env.tr,
	}
	d, err := deploy(cfg)
	if err != nil {
		return err
	}
	r.setup = time.Since(t0)

	r.timedIngest(d, func() {
		r.addIngest(ingest(ctx, env.tr, d.agents, perClient))
	})
	d.cloud.FlushContainers()
	var all []stream
	for _, c := range perClient {
		all = append(all, c...)
		for _, s := range c {
			r.inputs = append(r.inputs, s.data)
		}
	}
	r.timedRestore(d, splitClients(sample(all, edgeRestoreSample, env.seed), clients))

	r.checks++
	if u := d.cloud.Stats().UniqueBytes; u > r.uploaded {
		r.fail("cloud holds %d unique bytes but agents uploaded %d", u, r.uploaded)
	}
	r.finish(d)
	return nil
}

// hashSink keeps the replayed hashes observable.
var hashSink chunk.ID

// sha256Replay times chunk.Sum over the gear chunks of inputs: the
// hashing layer alone, on the workload's own chunk size distribution.
func sha256Replay(inputs [][]byte) (mbPerS float64, err error) {
	var chunks [][]byte
	var total int64
	g := chunk.NewDefaultGearChunker()
	for _, data := range inputs {
		err := g.SplitRawBytes(data, func(raw chunk.Raw) error {
			chunks = append(chunks, raw.Data)
			total += int64(len(raw.Data))
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	var rates []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for _, c := range chunks {
			hashSink = chunk.Sum(c)
		}
		rates = append(rates, float64(total)/1e6/time.Since(t0).Seconds())
	}
	return median(rates), nil
}
