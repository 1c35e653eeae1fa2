package obsv

// EngineMetrics bundles the engine's instruments: the facts only the
// metrics record, pre-resolved so the scheduler hot paths touch only
// atomic words. Everything the engine already counts for itself
// (launches, completions, steals, parks, wakes, recomputes, transfers,
// waves, parked tasks, per-signature ready depth) it registers as
// func-backed series instead. NewEngineMetrics(nil) returns an inert
// bundle: every instrument pointer is nil and nil instruments discard
// writes, so the engine carries no enable checks on its hot paths.
type EngineMetrics struct {
	// Placement waves.
	WaveSize    *Histogram // tasks placed per wave
	WaveSeconds *Histogram // wave duration on the engine clock

	// Placement declines by reason (no-capacity / declined / unavailable).
	DeclineNoCapacity  *Counter
	DeclineDeclined    *Counter
	DeclineUnavailable *Counter

	// StealAttempts counts work-steal tries; successes are the engine's.
	StealAttempts *Counter

	// FetchSeconds is input staging latency on the engine clock.
	FetchSeconds *Histogram

	// Launched is an unregistered counter that nothing in the engine
	// writes: the ledger's obsv replay prices a counter add on it.
	Launched *Counter
}

// NewEngineMetrics registers the engine instrument set on reg and
// returns the bundle. Pass nil reg to get an inert bundle (metrics off).
func NewEngineMetrics(reg *Registry) *EngineMetrics {
	if reg == nil {
		return &EngineMetrics{}
	}
	waveBuckets := []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	secBuckets := ExpBuckets(1e-6, 4, 12) // 1µs .. ~4.2s
	return &EngineMetrics{
		WaveSize:    reg.Histogram("flowgo_placement_wave_size", "Tasks placed per wave.", "", waveBuckets),
		WaveSeconds: reg.Histogram("flowgo_placement_wave_seconds", "Wave duration on the engine clock.", "", secBuckets),

		DeclineNoCapacity:  reg.Counter("flowgo_placement_declines_total", "Placement declines by reason.", Labels("reason", "no_capacity")),
		DeclineDeclined:    reg.Counter("flowgo_placement_declines_total", "Placement declines by reason.", Labels("reason", "declined")),
		DeclineUnavailable: reg.Counter("flowgo_placement_declines_total", "Placement declines by reason.", Labels("reason", "unavailable")),

		StealAttempts: reg.Counter("flowgo_steal_attempts_total", "Work-steal attempts.", ""),

		FetchSeconds: reg.Histogram("flowgo_fetch_seconds", "Input staging latency on the engine clock.", "", secBuckets),

		Launched: &Counter{},
	}
}

// CkptMetrics bundles the checkpointer's instruments. Capture time is
// measured on the wall clock even in the simulator — serialization cost
// is real work — so these series are the documented exception to sim
// determinism (the CI determinism smoke runs checkpoint-free).
type CkptMetrics struct {
	Saves          *Counter
	DeltaSaves     *Counter
	CaptureSeconds *Histogram
	LoggedRecords  *Histogram
	// What the saves put on disk: records, bytes and Sync calls.
	RecordsWritten *Counter
	BytesWritten   *Counter
	Syncs          *Counter
}

// NewCkptMetrics registers the checkpoint instrument set on reg. Pass
// nil reg for an inert bundle.
func NewCkptMetrics(reg *Registry) *CkptMetrics {
	if reg == nil {
		return &CkptMetrics{}
	}
	return &CkptMetrics{
		Saves:          reg.Counter("flowgo_checkpoint_saves_total", "Checkpoints written (base + delta).", ""),
		DeltaSaves:     reg.Counter("flowgo_checkpoint_delta_saves_total", "Delta checkpoints appended to a log.", ""),
		CaptureSeconds: reg.Histogram("flowgo_checkpoint_capture_seconds", "Checkpoint capture wall time.", "", ExpBuckets(1e-5, 4, 10)),
		LoggedRecords:  reg.Histogram("flowgo_checkpoint_logged_records", "Records logged per delta capture.", "", ExpBuckets(1, 4, 12)),
		RecordsWritten: reg.Counter("flowgo_checkpoint_records_written_total", "Records written by checkpoint saves.", ""),
		BytesWritten:   reg.Counter("flowgo_checkpoint_bytes_written_total", "Bytes written by checkpoint saves.", ""),
		Syncs:          reg.Counter("flowgo_checkpoint_syncs_total", "File syncs of checkpoint saves.", ""),
	}
}
