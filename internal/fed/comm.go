package fed

import "repro/internal/fedcore"

// CommStats is the wire session's traffic ledger (scalar counts and measured
// frame bytes), counted by the server end of the wire.
type CommStats = fedcore.CommStats

// Comm returns the federation's cumulative communication statistics.
func (f *Federation) Comm() CommStats { return f.wire.Comm() }
