package pipeline

import (
	"io"

	"repro/internal/obs"
)

// Metrics bundles the pipeline-layer metrics. All handles are
// nil-safe, so a zero Metrics disables instrumentation; build one per
// registry with NewMetrics (idempotent — repeated calls against the
// same registry share series).
type Metrics struct {
	SamplesIn      *obs.Counter // cpi2_pipeline_samples_total
	SamplesDropped *obs.Counter // cpi2_pipeline_samples_dropped_total

	MessagesIn  *obs.Counter // cpi2_pipeline_messages_in_total
	MessagesOut *obs.Counter // cpi2_pipeline_messages_out_total
	BytesIn     *obs.Counter // cpi2_pipeline_bytes_in_total
	BytesOut    *obs.Counter // cpi2_pipeline_bytes_out_total

	ConnectedAgents *obs.Gauge   // cpi2_pipeline_connected_agents
	Watchers        *obs.Gauge   // cpi2_pipeline_watchers
	SpecPushes      *obs.Counter // cpi2_pipeline_spec_pushes_total
	PushErrors      *obs.Counter // cpi2_pipeline_spec_push_errors_total
	DroppedBatches  *obs.Counter // cpi2_pipeline_dropped_batches_total
	Reconnects      *obs.Counter // cpi2_pipeline_reconnects_total

	SpooledBatches *obs.Gauge   // cpi2_pipeline_spooled_batches
	SpooledBytes   *obs.Gauge   // cpi2_pipeline_spooled_bytes
	SpillDropped   *obs.Counter // cpi2_pipeline_spool_dropped_total
	SpoolReplayed  *obs.Counter // cpi2_pipeline_spool_replayed_total

	// WireErrors counts abnormal connection drops by both read loops,
	// labelled by reason: "oversize" (frame beyond MaxFrameBytes),
	// "decode" (malformed frame), "read" (transport failure mid-read).
	// Clean closes are not counted.
	WireErrors *obs.CounterVec // cpi2_wire_errors_total{reason}

	// Per-shard SLIs: the same wire/spec-push/ingest signals broken out
	// by aggregator shard, so a single dead shard is visible as ITS
	// series going flat while the aggregates above keep moving. They are
	// only populated once a Bus/Server/Client has a shard identity
	// (SetShard); unsharded deployments carry no extra series.
	SamplesInByShard  *obs.CounterVec // cpi2_pipeline_samples_by_shard_total{shard}
	SpecPushesByShard *obs.CounterVec // cpi2_pipeline_spec_pushes_by_shard_total{shard}
	WireErrorsByShard *obs.CounterVec // cpi2_wire_errors_by_shard_total{reason,shard}

	// Misrouted counts samples refused by a shard's ownership filter:
	// an agent with a stale ring pushed a key this shard does not own.
	// Nonzero during a reshard rollout is expected; nonzero at steady
	// state means the fleet disagrees about the ring.
	Misrouted *obs.Counter // cpi2_pipeline_misrouted_total
}

// NewMetrics registers (or fetches) the pipeline metric set on r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		SamplesIn: r.Counter("cpi2_pipeline_samples_total",
			"CPI samples accepted into the aggregation pipeline"),
		SamplesDropped: r.Counter("cpi2_pipeline_samples_dropped_total",
			"invalid CPI samples rejected by the pipeline"),
		MessagesIn: r.Counter("cpi2_pipeline_messages_in_total",
			"wire messages received from agents"),
		MessagesOut: r.Counter("cpi2_pipeline_messages_out_total",
			"wire messages sent to agents"),
		BytesIn: r.Counter("cpi2_pipeline_bytes_in_total",
			"bytes read from agent connections"),
		BytesOut: r.Counter("cpi2_pipeline_bytes_out_total",
			"bytes written to agent connections"),
		ConnectedAgents: r.Gauge("cpi2_pipeline_connected_agents",
			"agent TCP connections currently open"),
		Watchers: r.Gauge("cpi2_pipeline_watchers",
			"spec watchers currently registered on the bus"),
		SpecPushes: r.Counter("cpi2_pipeline_spec_pushes_total",
			"spec updates delivered to watchers"),
		PushErrors: r.Counter("cpi2_pipeline_spec_push_errors_total",
			"spec pushes that failed (connection dropped mid-write)"),
		DroppedBatches: r.Counter("cpi2_pipeline_dropped_batches_total",
			"sample publishes the aggregator connection refused (not connected or send failed); a spool above re-sends them, and its losses are cpi2_pipeline_spool_dropped_total"),
		Reconnects: r.Counter("cpi2_pipeline_reconnects_total",
			"successful re-dials after a lost aggregator connection"),
		SpooledBatches: r.Gauge("cpi2_pipeline_spooled_batches",
			"sample batches currently buffered in the spool"),
		SpooledBytes: r.Gauge("cpi2_pipeline_spooled_bytes",
			"approximate bytes currently buffered in the spool"),
		SpillDropped: r.Counter("cpi2_pipeline_spool_dropped_total",
			"spooled batches evicted (oldest-first) to respect the spool budget"),
		SpoolReplayed: r.Counter("cpi2_pipeline_spool_replayed_total",
			"spooled batches successfully replayed downstream"),
		WireErrors: r.CounterVec("cpi2_wire_errors_total",
			"wire connections dropped abnormally by a read loop, by reason",
			"reason"),
		SamplesInByShard: r.CounterVec("cpi2_pipeline_samples_by_shard_total",
			"CPI samples accepted into the pipeline, by aggregator shard",
			"shard"),
		SpecPushesByShard: r.CounterVec("cpi2_pipeline_spec_pushes_by_shard_total",
			"spec updates delivered to watchers, by the shard that built them",
			"shard"),
		WireErrorsByShard: r.CounterVec("cpi2_wire_errors_by_shard_total",
			"abnormal wire drops by reason and aggregator shard",
			"reason", "shard"),
		Misrouted: r.Counter("cpi2_pipeline_misrouted_total",
			"samples refused by a shard's ownership filter (sender has a stale ring)"),
	}
}

// countingReader counts bytes read through it into c (nil-safe).
type countingReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(float64(n))
	return n, err
}

// countingWriter counts bytes written through it into c (nil-safe).
type countingWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(float64(n))
	return n, err
}
