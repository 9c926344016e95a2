// Package trace records structured execution events from the simulated
// processor: instruction fetches, effective-address steps, access
// validations, ring switches and traps. The ringsim CLI renders these
// for debugging, and the integration tests assert against them — e.g.
// that a downward call recorded a ring switch but no trap.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Kind labels an event.
type Kind int

const (
	// KindFetch: an instruction was fetched.
	KindFetch Kind = iota
	// KindEA: one step of effective address formation (initial, PR
	// contribution, indirect word contribution).
	KindEA
	// KindValidate: an access validation was performed.
	KindValidate
	// KindRingSwitch: the ring of execution changed.
	KindRingSwitch
	// KindTrap: a trap was generated.
	KindTrap
	// KindExec: an instruction completed execution.
	KindExec
	// KindService: a supervisor service ran.
	KindService
)

func (k Kind) String() string {
	switch k {
	case KindFetch:
		return "fetch"
	case KindEA:
		return "ea"
	case KindValidate:
		return "validate"
	case KindRingSwitch:
		return "ring-switch"
	case KindTrap:
		return "trap"
	case KindExec:
		return "exec"
	case KindService:
		return "service"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one recorded occurrence.
type Event struct {
	Kind   Kind
	Ring   core.Ring // ring of execution (or effective ring for validations)
	Segno  uint32
	Wordno uint32
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("[%-11s] r%d (%o|%o) %s", e.Kind, e.Ring, e.Segno, e.Wordno, e.Detail)
}

// KindCount is the number of event kinds (for per-kind counters).
const KindCount = int(KindService) + 1

// Recorder receives events. Implementations must be cheap when disabled;
// the CPU holds a nil Recorder in benchmarks.
//
// The reference path consumes events through the richer mmu.Sink
// interface (Enabled + Record); every Recorder in this package also
// implements it, so a Buffer or Counters plugs directly into the
// processor.
type Recorder interface {
	Record(Event)
}

// Buffer is an in-memory Recorder.
type Buffer struct {
	Events []Event
	// Limit, if positive, caps the number of retained events; further
	// events increment Dropped instead of growing the buffer.
	Limit   int
	Dropped int
}

// Enabled reports that the buffer accepts events (it always does; use
// Limit to bound retention).
func (b *Buffer) Enabled() bool { return true }

// Record appends the event, honouring Limit.
func (b *Buffer) Record(e Event) {
	if b.Limit > 0 && len(b.Events) >= b.Limit {
		b.Dropped++
		return
	}
	b.Events = append(b.Events, e)
}

// OfKind returns the recorded events of kind k, in order.
func (b *Buffer) OfKind(k Kind) []Event {
	var out []Event
	for _, e := range b.Events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// String renders all events, one per line.
func (b *Buffer) String() string {
	var sb strings.Builder
	for _, e := range b.Events {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	if b.Dropped > 0 {
		fmt.Fprintf(&sb, "... %d events dropped\n", b.Dropped)
	}
	return sb.String()
}

// Func adapts a function to the Recorder interface.
type Func func(Event)

// Enabled reports that the function wants events.
func (f Func) Enabled() bool { return true }

// Record calls f(e).
func (f Func) Record(e Event) { f(e) }

// Counters tallies events per kind without retaining them — the cheap
// always-on instrumentation point between full tracing and none. It
// implements both Recorder and the processor's sink interface.
type Counters struct {
	Counts [KindCount]uint64
	// Other counts events whose kind is outside the known range.
	Other uint64
}

// Enabled reports that the counters accept events.
func (c *Counters) Enabled() bool { return true }

// Record tallies the event.
func (c *Counters) Record(e Event) {
	if k := int(e.Kind); k >= 0 && k < KindCount {
		c.Counts[k]++
		return
	}
	c.Other++
}

// Total returns the number of events recorded.
func (c *Counters) Total() uint64 {
	t := c.Other
	for _, n := range c.Counts {
		t += n
	}
	return t
}

// Of returns the count for kind k.
func (c *Counters) Of(k Kind) uint64 {
	if i := int(k); i >= 0 && i < KindCount {
		return c.Counts[i]
	}
	return 0
}

// String renders the non-zero counters, one per line.
func (c *Counters) String() string {
	var sb strings.Builder
	for k := 0; k < KindCount; k++ {
		if c.Counts[k] == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%-11s %d\n", Kind(k), c.Counts[k])
	}
	if c.Other > 0 {
		fmt.Fprintf(&sb, "%-11s %d\n", "other", c.Other)
	}
	return sb.String()
}
