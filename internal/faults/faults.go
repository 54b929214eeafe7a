// Package faults is the deterministic fault-injection subsystem of the
// reproduction: connection-level chaos for the scan path.
//
// Internet scans live in a hostile network — refused connections,
// mid-handshake resets, stalled hosts, truncated or garbled responses
// ("Ten Years of ZMap" documents loss handling as core to scan
// correctness). A Plan schedules one of those faults on every n-th
// connection of a devices.Server (and of a simulated fleet's devices),
// so a real-socket chaos test replays exactly given the same arrival
// order, and a retry right after a faulted connection always passes.
//
// A nil *Plan is safe: Next reports Pass, so production call sites
// inject unconditionally and pay one predicted branch when chaos is off
// — the same idiom as internal/telemetry's nil handles.
package faults

import (
	"fmt"
	"sync/atomic"
)

// Action enumerates the connection-level faults a Plan can inject,
// mirroring what internet scanners actually see.
type Action int

const (
	// Pass injects nothing; the connection is served normally.
	Pass Action = iota
	// Refuse aborts the connection before reading anything — the
	// firewalled/filtered host whose port answers and immediately slams.
	Refuse
	// Reset reads the client hello and then resets the connection
	// (RST, not FIN) — the mid-handshake abort.
	Reset
	// Stall reads the client hello and then never answers, holding the
	// connection open until the client's deadline gives up — the tarpit.
	Stall
	// Truncate sends a well-formed SERVERHELLO header but cuts the
	// certificate payload short before hanging up.
	Truncate
	// Garble sends a corrupted SERVERHELLO line — the protocol violation
	// a scanner must classify as permanent and never retry.
	Garble

	numActions
)

var actionNames = [numActions]string{"pass", "refuse", "reset", "stall", "truncate", "garble"}

func (a Action) String() string {
	if a < 0 || a >= numActions {
		return fmt.Sprintf("faults.Action(%d)", int(a))
	}
	return actionNames[a]
}

// Plan is a deterministic per-connection fault schedule: its action on
// connections 1, n+1, 2n+1, ... and Pass on the rest. Next is safe for
// concurrent use; when several servers share one Plan they count one
// global arrival sequence.
type Plan struct {
	n      int64
	action Action
	conns  atomic.Int64
}

// NewEveryN returns a Plan that injects action on connections 1, n+1,
// 2n+1, ... (a 1/n fault rate). For n >= 2 a connection retried right
// after a faulted one always passes, so recovery is guaranteed by
// construction — the shape end-to-end chaos tests want. n < 1 is
// treated as 1 (every connection faulted).
func NewEveryN(n int, action Action) *Plan {
	if n < 1 {
		n = 1
	}
	return &Plan{n: int64(n), action: action}
}

// Next returns the action for the next accepted connection. A nil plan
// always passes.
func (p *Plan) Next() Action {
	if p == nil {
		return Pass
	}
	if (p.conns.Add(1)-1)%p.n == 0 {
		return p.action
	}
	return Pass
}
