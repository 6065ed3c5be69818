package agent

import "efdedup/internal/metrics"

// agentMetrics pre-resolves the pipeline's series once per agent so the
// per-chunk hot path records without registry lookups. Every series
// carries a mode label, matching the paper's per-strategy comparison
// (Fig. 5): the same stage costs different amounts under ring,
// cloud-assisted and cloud-only dedup, and the breakdown should show it.
type agentMetrics struct {
	chunkProduce *metrics.Histogram // read+split+hash time per chunk
	chunkBytes   *metrics.Histogram // chunk payload sizes
	lookupLat    *metrics.Histogram // index lookup RPC latency per batch
	lookupBatch  *metrics.Histogram // chunks per lookup batch
	uploadLat    *metrics.Histogram // cloud upload RPC latency per batch but a stream's last (cloud-only: per raw upload)
	uploadBatch  *metrics.Histogram // chunks per upload batch
	insertLat    *metrics.Histogram // ring index insert latency per batch
	manifestLat  *metrics.Histogram // manifest commit latency per stream, final batch included
	streamLat    *metrics.Histogram // end-to-end stream latency

	// Stage occupancy for the concurrent pipeline: how busy each stage
	// is right now, and how many lookup batches overlap in flight (the
	// histogram shows whether LookupInflight headroom is actually used).
	hashBusy           *metrics.Gauge     // hash workers currently hashing
	lookupInflight     *metrics.Gauge     // lookup batches currently in flight
	uploadQueue        *metrics.Gauge     // upload batches queued or uploading
	lookupInflightHist *metrics.Histogram // in-flight batches observed at dispatch

	// Multi-stream ingest: admission and memory backpressure. A rising
	// admissionWait means MaxStreams is the bottleneck; arenaInuse
	// pinned at ArenaBudgetBytes means the byte budget is.
	streamsActive *metrics.Gauge     // admitted streams currently processing
	admissionWait *metrics.Histogram // time blocked on the MaxStreams seat
	arenaInuse    *metrics.Gauge     // chunk payload bytes admitted to pipelines

	uploadedChunks  *metrics.Counter
	uploadedBytes   *metrics.Counter
	dupChunks       *metrics.Counter
	degradedLookups *metrics.Counter
	downgrades      *metrics.Counter
	recoveries      *metrics.Counter
	insertFails     *metrics.Counter
}

func newAgentMetrics(mode Mode) *agentMetrics {
	reg := metrics.Default()
	m := mode.String()
	return &agentMetrics{
		chunkProduce: reg.DurationHistogram("agent_chunk_produce_seconds", "mode", m),
		chunkBytes:   reg.Histogram("agent_chunk_bytes", "mode", m),
		lookupLat:    reg.DurationHistogram("agent_lookup_seconds", "mode", m),
		lookupBatch:  reg.Histogram("agent_lookup_batch_chunks", "mode", m),
		uploadLat:    reg.DurationHistogram("agent_upload_seconds", "mode", m),
		uploadBatch:  reg.Histogram("agent_upload_batch_chunks", "mode", m),
		insertLat:    reg.DurationHistogram("agent_index_insert_seconds", "mode", m),
		manifestLat:  reg.DurationHistogram("agent_manifest_put_seconds", "mode", m),
		streamLat:    reg.DurationHistogram("agent_stream_seconds", "mode", m),

		hashBusy:           reg.Gauge("agent_hash_workers_busy", "mode", m),
		lookupInflight:     reg.Gauge("agent_lookups_inflight", "mode", m),
		uploadQueue:        reg.Gauge("agent_upload_queue_batches", "mode", m),
		lookupInflightHist: reg.Histogram("agent_lookup_inflight_batches", "mode", m),

		streamsActive: reg.Gauge("agent_streams_active", "mode", m),
		admissionWait: reg.DurationHistogram("agent_stream_admission_wait_seconds", "mode", m),
		arenaInuse:    reg.Gauge("agent_arena_bytes_inuse", "mode", m),

		uploadedChunks:  reg.Counter("agent_uploaded_chunks_total", "mode", m),
		uploadedBytes:   reg.Counter("agent_uploaded_bytes_total", "mode", m),
		dupChunks:       reg.Counter("agent_duplicate_chunks_total", "mode", m),
		degradedLookups: reg.Counter("agent_degraded_lookups_total", "mode", m),
		downgrades:      reg.Counter("agent_downgrades_total", "mode", m),
		recoveries:      reg.Counter("agent_recoveries_total", "mode", m),
		insertFails:     reg.Counter("agent_index_insert_failures_total", "mode", m),
	}
}
