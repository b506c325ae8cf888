package fedcore

import "repro/internal/obs"

// Round-engine metrics, registered once into the default registry and served
// by pfrl-node's -metrics-addr endpoint. They moved here from internal/fed
// with their names intact when the round state machine was extracted: both
// federation paths now feed the same instruments, so an in-process run and a
// networked server report rounds identically.
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
	// payload codec, not scalar-count estimates. Both federation paths count
	// through these, so the compression ratio on the endpoint reflects
	// whatever tier the run was configured with.
	mWireUpload = coreReg.Counter("pfrl_fed_wire_upload_bytes_total",
		"measured wire bytes of accepted client upload frames")
	mWireDownload = coreReg.Counter("pfrl_fed_wire_download_bytes_total",
		"measured wire bytes of delivered global download frames")
	gCompression = coreReg.Gauge("pfrl_fed_compression_ratio",
		"cumulative raw payload bytes over measured wire bytes (1.0 = uncompressed)")
)

// ObserveWireUpload counts n measured bytes of an accepted upload frame.
func ObserveWireUpload(n int) { mWireUpload.Add(uint64(n)) }

// ObserveWireDownload counts n measured bytes of a delivered download frame.
func ObserveWireDownload(n int) { mWireDownload.Add(uint64(n)) }

// SetCompressionRatio refreshes the cumulative compression-ratio gauge.
func SetCompressionRatio(r float64) { gCompression.Set(r) }
