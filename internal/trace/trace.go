// Package trace is the bring-up observability facility: structured,
// timestamped events from the channel, the iMC, the NVMC, the refresh
// detector and the driver — the software equivalent of the logic analyzer
// hanging off the PoC board. Producers publish through a Recorder, which
// fans every event out to pluggable Sinks: the bounded ring Log below (the
// "what was on the bus around the failure?" view) and, in a full system,
// the internal/conform protocol auditor. Events carry typed payloads and
// format themselves lazily, so an always-on auditing sink costs no
// Sprintf per event.
package trace

import (
	"fmt"
	"io"

	"nvdimmc/internal/cp"
	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/sim"
)

// Kind classifies events.
type Kind int

// Event kinds.
const (
	KindCommand     Kind = iota // DDR4 command on the CA bus
	KindRefresh                 // REF specifically (also counted as Command)
	KindRefreshHold             // iMC holds the data bus for one tRFC to refresh
	KindRefDetect               // refresh detector resolved a REF off the CA pins
	KindWindow                  // extra-tRFC window opened
	KindNVMCData                // NVMC moved data in a window
	KindHostData                // host burst occupied the data bus
	KindCPCommand               // NVMC accepted a CP command
	KindCPAck                   // device posted an ack
	KindFault                   // driver fault path entered
	KindEviction                // driver evicted a slot
	KindCollision               // bus collision (fatal on real hardware)
	KindOther
)

var kindNames = map[Kind]string{
	KindCommand:     "cmd",
	KindRefresh:     "REF",
	KindRefreshHold: "ref-hold",
	KindRefDetect:   "ref-det",
	KindWindow:      "window",
	KindNVMCData:    "nvmc-data",
	KindHostData:    "host-data",
	KindCPCommand:   "cp-cmd",
	KindCPAck:       "cp-ack",
	KindFault:       "fault",
	KindEviction:    "evict",
	KindCollision:   "COLLISION",
	KindOther:       "other",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Bus masters, mirroring bus.Master (which cannot be imported here without
// a cycle: the bus publishes trace events).
const (
	MasterHost = 0 // the host iMC
	MasterNVMC = 1 // the module's FPGA controller
)

func masterName(m int) string {
	if m == MasterNVMC {
		return "NVMC"
	}
	return "iMC"
}

// Event is one trace record. At and Kind are always set; the payload
// fields are per-kind:
//
//	KindCommand/KindRefresh: Master, Cmd
//	KindRefreshHold:         End (bus held [At, End))
//	KindRefDetect:           RefAt (bus time of the detected REF)
//	KindWindow:              End (window is [At, End)), RefAt
//	KindNVMCData:            Read, Addr, Bytes
//	KindHostData:            Read, Addr, Bytes, End (bus held [At, End))
//	KindCPCommand:           Slot, Word (primary), Word2 (secondary)
//	KindCPAck:               Slot, Word (ack word), Word2 (opcode),
//	                         Windows, Dropped (fault ate the ack write)
//	KindFault/KindEviction/KindCollision/KindOther: Detail
type Event struct {
	At      sim.Time
	Kind    Kind
	Master  int
	Cmd     ddr4.Command
	Read    bool
	Addr    int64
	Bytes   int
	End     sim.Time
	RefAt   sim.Time
	Slot    int
	Word    uint64
	Word2   uint64
	Windows int
	Dropped bool
	Detail  string
}

// Describe renders the payload (everything after the timestamp and kind).
// Free-form events (Add/Addf) carry their text in Detail; structured events
// render from their typed fields.
func (e Event) Describe() string {
	if e.Detail != "" {
		return e.Detail
	}
	switch e.Kind {
	case KindCommand, KindRefresh:
		return fmt.Sprintf("%s: %v", masterName(e.Master), e.Cmd)
	case KindRefreshHold:
		return fmt.Sprintf("bus held until %v", e.End)
	case KindRefDetect:
		return fmt.Sprintf("REF@%v detected", e.RefAt)
	case KindWindow:
		return fmt.Sprintf("open until %v (ref %v)", e.End, e.RefAt)
	case KindNVMCData, KindHostData:
		dir := "write"
		if e.Read {
			dir = "read"
		}
		if e.Kind == KindHostData {
			return fmt.Sprintf("%s %dB @%#x until %v", dir, e.Bytes, e.Addr, e.End)
		}
		return fmt.Sprintf("%s %dB @%#x", dir, e.Bytes, e.Addr)
	case KindCPCommand:
		return fmt.Sprintf("slot %d: %v", e.Slot, cp.Decode(e.Word, e.Word2))
	case KindCPAck:
		ack := cp.DecodeAck(e.Word)
		drop := ""
		if e.Dropped {
			drop = " DROPPED"
		}
		return fmt.Sprintf("slot %d: %v %v (%d windows)%s",
			e.Slot, cp.Opcode(e.Word2), ack.Status, e.Windows, drop)
	default:
		return e.Detail
	}
}

func (e Event) String() string {
	return fmt.Sprintf("%-12v %-10s %s", e.At, e.Kind, e.Describe())
}

// Sink consumes every published event. e points at an event the publishing
// Recorder owns and reuses for its next event: implementations must not
// retain or modify it, and copy *e to keep it.
type Sink interface {
	Record(e *Event)
}

// Recorder fans events out to attached sinks. The zero value and nil are
// both valid (inactive) recorders, so producers can publish uncondition-
// ally; guard event construction with Active to skip the work entirely
// when nobody listens.
type Recorder struct {
	sinks []Sink
	// ev is the event being published: every sink reads it through one
	// pointer instead of receiving its own copy.
	ev Event
}

// Attach subscribes a sink to all future events.
func (r *Recorder) Attach(s Sink) {
	if s != nil {
		r.sinks = append(r.sinks, s)
	}
}

// Active reports whether any sink is attached (nil-safe).
func (r *Recorder) Active() bool { return r != nil && len(r.sinks) > 0 }

// Sinks reports how many sinks are attached (nil-safe). Idle-warp
// eligibility checks use it to detect observers that would miss warped
// events (only sinks the warp explicitly replays into may be attached).
func (r *Recorder) Sinks() int {
	if r == nil {
		return 0
	}
	return len(r.sinks)
}

// Record publishes one event to every sink (nil-safe).
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.ev = e
	for _, s := range r.sinks {
		s.Record(&r.ev)
	}
}

// Log is a bounded ring of events with per-kind counters, attachable to a
// Recorder as a Sink. Create with New.
type Log struct {
	ring    []Event
	next    int
	wrapped bool
	counts  map[Kind]uint64
	total   uint64
}

// New returns a log keeping the most recent capacity events.
func New(capacity int) *Log {
	if capacity < 1 {
		capacity = 1
	}
	return &Log{ring: make([]Event, capacity), counts: make(map[Kind]uint64)}
}

// Record implements Sink.
func (l *Log) Record(e *Event) {
	if l == nil {
		return
	}
	l.counts[e.Kind]++
	l.total++
	l.ring[l.next] = *e
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.wrapped = true
	}
}

// Total reports events recorded since creation (including overwritten ones).
func (l *Log) Total() uint64 { return l.total }

// Count reports events of one kind.
func (l *Log) Count(k Kind) uint64 { return l.counts[k] }

// Events returns the retained events in chronological order.
func (l *Log) Events() []Event {
	if !l.wrapped {
		out := make([]Event, l.next)
		copy(out, l.ring[:l.next])
		return out
	}
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// Dump writes the last n retained events (all if n <= 0) to w, followed by
// the per-kind totals.
func (l *Log) Dump(w io.Writer, n int) {
	evs := l.Events()
	if n > 0 && n < len(evs) {
		evs = evs[len(evs)-n:]
	}
	for _, e := range evs {
		fmt.Fprintln(w, e)
	}
	fmt.Fprintf(w, "-- %d events total:", l.total)
	for k := KindCommand; k <= KindOther; k++ {
		if c := l.counts[k]; c > 0 {
			fmt.Fprintf(w, " %s=%d", k, c)
		}
	}
	fmt.Fprintln(w)
}
