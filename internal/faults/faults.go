// Package faults is the deterministic fault-injection subsystem of the
// reproduction: seeded connection-level chaos for the scan path.
//
// Internet scans live in a hostile network — refused connections,
// mid-handshake resets, stalled hosts, truncated or garbled responses,
// devices that fall over after a few probes ("Ten Years of ZMap"
// documents loss handling as core to scan correctness). Plan schedules
// those faults for a devices.Server (and for a simulated fleet's devices
// and the check service's per-check chaos), drawn deterministically from
// a seed, so a real-socket chaos test replays byte-for-byte given the
// same seed and arrival order.
//
// A nil *Plan is safe: every method reports "no fault", so production
// call sites inject unconditionally and pay one predicted branch when
// chaos is off — the same idiom as internal/telemetry's nil handles.
package faults

import (
	"fmt"
	"math/rand"
	"sync"
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

// Weights sets the per-connection probability of each fault. Each field
// is in [0,1]; negative values count as 0. If the sum exceeds 1 the
// weights are scaled down proportionally; any remainder is Pass.
type Weights struct {
	Refuse, Reset, Stall, Truncate, Garble float64
}

func (w Weights) normalized() Weights {
	clamp := func(v float64) float64 {
		if v < 0 || v != v { // negative or NaN
			return 0
		}
		return v
	}
	w.Refuse, w.Reset, w.Stall = clamp(w.Refuse), clamp(w.Reset), clamp(w.Stall)
	w.Truncate, w.Garble = clamp(w.Truncate), clamp(w.Garble)
	if sum := w.Refuse + w.Reset + w.Stall + w.Truncate + w.Garble; sum > 1 {
		w.Refuse /= sum
		w.Reset /= sum
		w.Stall /= sum
		w.Truncate /= sum
		w.Garble /= sum
	}
	return w
}

// Decision is the plan's verdict for one accepted connection.
type Decision struct {
	Action Action
	// Crash marks this connection as the device's last: the server
	// aborts it and stops listening (the crash-after-N-connections
	// firmware failure).
	Crash bool
}

// Plan is a deterministic, seeded per-connection fault schedule. The
// decision sequence is a pure function of the seed (and, in every-N
// mode, of the arrival index), so a chaos run replays exactly under the
// same seed and connection order. Next is safe for concurrent use; when
// several servers share one Plan they draw from one global sequence.
type Plan struct {
	mu       sync.Mutex
	rng      *rand.Rand // nil in every-N mode
	weights  Weights
	everyN   int
	everyAct Action
	crashAt  int64 // crash on this 1-based connection; 0 = never
	conns    int64
	counts   [numActions]int64
}

// NewPlan returns a Plan drawing faults at the given per-connection
// probabilities from a seeded generator.
func NewPlan(seed int64, w Weights) *Plan {
	return &Plan{rng: rand.New(rand.NewSource(seed)), weights: w.normalized()}
}

// NewEveryN returns a Plan that injects action on connections 1, n+1,
// 2n+1, ... (a 1/n deterministic fault rate). Unlike the probabilistic
// plan, a retried connection immediately after a faulted one always
// passes (for n >= 2), so recovery is guaranteed by construction —
// the shape end-to-end chaos tests want. n < 1 is treated as 1 (every
// connection faulted).
func NewEveryN(n int, action Action) *Plan {
	if n < 1 {
		n = 1
	}
	return &Plan{everyN: n, everyAct: action}
}

// CrashAfter arranges for the device to crash on its n-th accepted
// connection (1-based): that connection is aborted and the listener
// closes. n <= 0 disables. Returns p for chaining.
func (p *Plan) CrashAfter(n int) *Plan {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashAt = int64(n)
	return p
}

// Next draws the decision for the next accepted connection. A nil plan
// always passes.
func (p *Plan) Next() Decision {
	if p == nil {
		return Decision{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conns++
	if p.crashAt > 0 && p.conns >= p.crashAt {
		return Decision{Crash: true}
	}
	var a Action
	if p.everyN > 0 {
		if (p.conns-1)%int64(p.everyN) == 0 {
			a = p.everyAct
		}
	} else {
		u := p.rng.Float64()
		w := p.weights
		switch {
		case u < w.Refuse:
			a = Refuse
		case u < w.Refuse+w.Reset:
			a = Reset
		case u < w.Refuse+w.Reset+w.Stall:
			a = Stall
		case u < w.Refuse+w.Reset+w.Stall+w.Truncate:
			a = Truncate
		case u < w.Refuse+w.Reset+w.Stall+w.Truncate+w.Garble:
			a = Garble
		}
	}
	p.counts[a]++
	return Decision{Action: a}
}

// Connections returns how many decisions the plan has issued.
func (p *Plan) Connections() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conns
}

// Injected returns the per-action tally of decisions issued so far
// (Pass included).
func (p *Plan) Injected() map[Action]int64 {
	m := make(map[Action]int64)
	if p == nil {
		return m
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for a, n := range p.counts {
		if n > 0 {
			m[Action(a)] = n
		}
	}
	return m
}
