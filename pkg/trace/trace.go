// Package trace is the scheduler flight recorder: a nil-safe,
// zero-cost-when-disabled event stream that makes the MIRS backtracking
// search — II escalation, deadline-window misses, force-ejects, victim
// selection, spill materialisation — observable from artifacts instead
// of printf debugging.
//
// The contract has two halves:
//
//   - Disabled is free. A nil Recorder on sched.Request is the default;
//     every emission site in the backends is guarded by a nil check, so
//     the disabled path costs one predicted branch and constructs no
//     Event. The allocs/op gate (TestCompileAllocs in internal/core)
//     and the byte-determinism smoke pin this: tracing compiled in but
//     off changes neither allocations nor output.
//   - Enabled is passive. Recorders observe, they never steer: a
//     compilation with any recorder attached produces a bit-identical
//     schedule to one with none (TestTraceZeroPerturbation in
//     internal/core pins this).
//
// Events carry only scalars and pre-existing strings (no formatting on
// the hot path), ordered by a logical sequence number the recorder
// assigns — never wall clock — so traces of a fixed seed are
// byte-deterministic across runs and machines.
//
// Buffer is the recorder that ships: it retains the full stream for the
// Chrome trace exporter and the aggregated search Profile (msched
// trace, msched run -trace-slowest).
package trace

// Kind classifies one search event. The values are stable artifact
// vocabulary: docs/PAPER_MAP.md maps each kind to the paper's algorithm
// step, and the Chrome/profile exporters key on the names below.
type Kind uint8

// The event kinds, in rough order of appearance during one II attempt.
const (
	// KindIIStart opens one candidate-II attempt; II carries the
	// candidate. Arg carries the MII on the first attempt.
	KindIIStart Kind = iota
	// KindIIEnd closes the attempt: Arg is 1 when a complete placement
	// was reached, Aux the residual register overflow (0 = success).
	// The exact backend, which never spills, labels the event with its
	// solver's verdict (VerdictSat, VerdictUnsat, VerdictUnknown) and
	// carries the conflicts the candidate spent in Aux instead.
	KindIIEnd
	// KindPlace is one committed placement: Op at (Cycle, Cluster).
	KindPlace
	// KindWindowMiss is an empty deadline window: Op's [earliest,
	// latest] interval on Cluster was empty (Cycle = earliest start,
	// Arg = latest), the conflict only a force-eject can resolve.
	KindWindowMiss
	// KindForce is a forced placement: Op seized (Cycle, Cluster)
	// after no conflict-free position existed.
	KindForce
	// KindEject is one ejection: Op lost its placement at (Cycle,
	// Cluster) to a forced placement, a broken deadline, bus pressure,
	// or a compaction lift.
	KindEject
	// KindVictim is a spill-victim selection: Op (−1 for a live-in
	// value) and Reg name the chosen lifetime; Label carries the
	// victim's mnemonic. Arg is the lifetime length that made it win.
	KindVictim
	// KindSpill is one materialised spill: Arg counts stores added,
	// Aux reloads. It follows its KindVictim event.
	KindSpill
	// KindCompact brackets the post-placement retiming sweep: Arg 1
	// opens it, 0 closes it. Ejections in between are lifts, not
	// backtracking.
	KindCompact
	// KindCacheHit / KindCacheMiss summarise the window-cache counters
	// for the attempt just ended: Arg carries the count. Emitted as
	// per-II aggregates, not per lookup — a lookup happens per probe
	// and per-event cost there would distort what it measures.
	KindCacheHit
	KindCacheMiss

	// NumKinds bounds Kind for dense per-kind tables.
	NumKinds = int(KindCacheMiss) + 1
)

// String returns the kind's stable artifact name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

var kindNames = [...]string{
	KindIIStart:    "ii_start",
	KindIIEnd:      "ii_end",
	KindPlace:      "place",
	KindWindowMiss: "window_miss",
	KindForce:      "force",
	KindEject:      "eject",
	KindVictim:     "victim",
	KindSpill:      "spill",
	KindCompact:    "compact",
	KindCacheHit:   "cache_hit",
	KindCacheMiss:  "cache_miss",
}

// The exact backend's verdicts on a candidate II, the Label of its
// KindIIEnd events. VerdictUnsat is a proof that no schedule exists at
// the II; VerdictUnknown means the conflict budget ran out first.
const (
	VerdictSat     = "sat"
	VerdictUnsat   = "unsat"
	VerdictUnknown = "unknown"
)

// Kinds returns every kind in declaration order — the iteration order
// exporters and tests use so artifact rows never depend on map order.
func Kinds() []Kind {
	out := make([]Kind, NumKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Event is one recorded search event. All fields are scalars (plus one
// optional pre-existing string), so constructing an Event never
// allocates and emission sites pass it by value.
type Event struct {
	// Seq is the logical timestamp the recorder assigns: a
	// per-recording counter, never wall clock, so traces are
	// deterministic.
	Seq int64
	// Kind classifies the event; the remaining fields are
	// kind-specific (see the Kind constants).
	Kind Kind
	// II is the candidate initiation interval the event happened under.
	II int32
	// Op is the instruction ID involved, -1 when none (or a live-in).
	Op int32
	// Cluster and Cycle locate a placement-shaped event; -1 when not
	// applicable.
	Cluster int32
	Cycle   int32
	// Reg is the virtual register involved (victim selection), -1
	// otherwise.
	Reg int32
	// Arg and Aux are kind-specific payloads (see the Kind constants).
	Arg int64
	Aux int64
	// Label is an optional pre-existing string (an instruction
	// mnemonic, or a solver verdict); emission sites must not format
	// strings to fill it.
	Label string
}

// Recorder consumes search events. Implementations must treat Emit as
// hot-path code: no locking beyond atomics, no I/O, no formatting.
// Backends guard every emission with a nil check, so a nil Recorder —
// the default — is the disabled state and costs nothing.
type Recorder interface {
	// Emit records one event. The recorder owns assigning Event.Seq;
	// emitters leave it zero.
	Emit(e Event)
}

// Buffer is the retaining Recorder: it appends every event, assigning
// sequence numbers, for the Chrome exporter and the search Profile. Not
// safe for concurrent use — attach one Buffer per compilation.
type Buffer struct {
	events []Event
	seq    int64
}

// Emit implements Recorder.
func (b *Buffer) Emit(e Event) {
	e.Seq = b.seq
	b.seq++
	b.events = append(b.events, e)
}

// Events returns the recorded stream in emission order. The slice is
// the buffer's backing store; callers must not mutate it.
func (b *Buffer) Events() []Event { return b.events }

// Len returns the number of recorded events.
func (b *Buffer) Len() int { return len(b.events) }

// Reset clears the buffer for reuse, keeping its backing allocation.
func (b *Buffer) Reset() { b.events, b.seq = b.events[:0], 0 }
