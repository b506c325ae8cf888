package fednet

import "repro/internal/obs"

// Networked-federation metrics, registered into the default registry so a
// pfrl-node process exposes its server barrier state and client
// fault-tolerance counters on -metrics-addr. One process typically runs one
// role, so the server and client instrument sets don't collide. Round-level
// aggregation metrics (pfrl_fed_rounds_total, pfrl_fed_aggregate_seconds,
// ...) come from the shared engine in internal/fedcore; only the
// barrier/transport instruments live here.
var (
	netReg = obs.DefaultRegistry()

	// Server side.
	gNetRound = netReg.Gauge("pfrl_fednet_round",
		"current server round (completed aggregations)")
	gNetClients = netReg.Gauge("pfrl_fednet_clients_registered",
		"clients registered with the aggregation server")
	mNetRounds = netReg.Counter("pfrl_fednet_rounds_total",
		"aggregation rounds completed by the server")
	mNetTimedOut = netReg.Counter("pfrl_fednet_rounds_timed_out_total",
		"rounds closed by the deadline instead of a full barrier")

	// Client side.
	mNetRetries = netReg.Counter("pfrl_fednet_client_retries_total",
		"client RPC steps re-attempted after a transient failure")
	mNetTimeouts = netReg.Counter("pfrl_fednet_client_rpc_timeouts_total",
		"client RPCs that exceeded CallTimeout")
	mNetResyncs = netReg.Counter("pfrl_fednet_client_resyncs_total",
		"missed rounds recovered by rejoining the slot")
)
