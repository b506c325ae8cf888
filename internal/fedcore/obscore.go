package fedcore

import "repro/internal/obs"

// Round-engine and wire metrics, registered once into the default registry
// and served by pfrl-node's -metrics-addr endpoint. Both federation paths feed
// the same instruments, so an in-process run and a networked server report
// rounds and traffic identically.
var (
	coreReg = obs.DefaultRegistry()

	mRounds = coreReg.Counter("pfrl_fed_rounds_total",
		"federated aggregation rounds completed")
	mUploadDrops = coreReg.Counter("pfrl_fed_upload_drops_total",
		"client uploads lost to transient transport faults or corrupt lengths")
	mDownloadDrops = coreReg.Counter("pfrl_fed_download_drops_total",
		"client downloads lost to transient transport faults")
	gParticipants = coreReg.Gauge("pfrl_fed_participants",
		"uploads aggregated in the most recent round")
	hAggregate = coreReg.Histogram("pfrl_fed_aggregate_seconds",
		"server-side aggregation time per round", nil)

	// Accept-point instruments: staleness distribution of submitted deltas,
	// drop counters by cause, and buffer state.
	hStaleness = coreReg.Histogram("pfrl_fed_staleness_rounds",
		"staleness (rounds behind the global) of submitted async deltas",
		[]float64{0, 1, 2, 4, 8, 16, 32})
	mStaleDrops = coreReg.Counter("pfrl_fed_staleness_drops_total",
		"async submissions dropped for exceeding the staleness bound")
	mDupDrops = coreReg.Counter("pfrl_fed_async_duplicate_drops_total",
		"async submissions dropped as (client, seq) duplicates")
	mNonFiniteDrops = coreReg.Counter("pfrl_fed_nonfinite_drops_total",
		"submissions rejected for carrying a NaN or infinite value")
	mAsyncCommits = coreReg.Counter("pfrl_fed_async_commits_total",
		"buffered async commits (aggregation rounds triggered by arrivals)")
	gBufferFill = coreReg.Gauge("pfrl_fed_async_buffer_fill",
		"accepted async arrivals currently buffered toward the next commit")

	// Data-plane wire instruments: measured frame bytes as produced by the
	// payload codec, not scalar-count estimates, so the ratio on the endpoint
	// reflects the configured tier. WireServer is the only writer.
	mWireUpload = coreReg.Counter("pfrl_fed_wire_upload_bytes_total",
		"measured wire bytes of accepted client upload frames")
	mWireDownload = coreReg.Counter("pfrl_fed_wire_download_bytes_total",
		"measured wire bytes of delivered global download frames")
	gCompression = coreReg.Gauge("pfrl_fed_compression_ratio",
		"cumulative raw payload bytes over measured wire bytes (1.0 = uncompressed)")
)
