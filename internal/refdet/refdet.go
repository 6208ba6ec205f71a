// Package refdet models the refresh-detector RTL of the NVDIMM-C FPGA
// (Fig. 4): six CA signals (CKE, CS_n, ACT_n, RAS_n, CAS_n, WE_n) each feed
// a 1:8 deserializer clocked by the DDR4 differential clock; the detector
// receives six 8-bit words per frame and asserts is_refresh when the sampled
// pin levels decode as a normal REFRESH command. Self-refresh entry/exit
// decode differently and must never fire the detector.
//
// The detector is the single component the whole conflict-avoidance scheme
// hangs on: a false positive lets the NVMC drive a bus the host still owns
// (a system-fatal conflict), and a missed REF merely costs one window. The
// model exposes an injectable sampling bit-error rate so tests can show both
// the clean-signal behaviour the paper validates by aging (§VII-A) and what
// marginal signal integrity would do.
package refdet

import (
	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/trace"
)

// FrameBits is the deserializer width: each CA pin is captured eight times
// per frame (1:8 serial-to-parallel conversion, §IV-A).
const FrameBits = 8

// NumPins is the number of snooped CA signals.
const NumPins = 6

// Deserializer is a 1:8 serial-to-parallel converter for one CA pin.
type Deserializer struct {
	shift uint8
	count int
}

// Push shifts one sampled bit in. When the eighth bit of a frame arrives it
// returns the completed 8-bit word and true.
func (d *Deserializer) Push(bit bool) (word uint8, ready bool) {
	d.shift <<= 1
	if bit {
		d.shift |= 1
	}
	d.count++
	if d.count == FrameBits {
		d.count = 0
		w := d.shift
		d.shift = 0
		return w, true
	}
	return 0, false
}

// Pending reports how many bits of the current frame have been captured.
func (d *Deserializer) Pending() int { return d.count }

// Stats aggregates detector behaviour for validation experiments.
type Stats struct {
	Samples        uint64 // CA states examined
	Detections     uint64 // is_refresh assertions
	TruePositives  uint64 // assertions on actual REF
	FalsePositives uint64 // assertions on non-REF states (fatal in hardware)
	MissedRefresh  uint64 // REF states that failed to assert
}

// Detector is the refresh-detector block.
type Detector struct {
	k *sim.Kernel

	// tck is the sampling clock period; detection latency is quantized to
	// the frame boundary plus a fixed decode pipeline.
	tck      sim.Duration
	pipeline sim.Duration

	// OnRefresh fires once per detected REFRESH, at the instant the decode
	// pipeline resolves. The argument is the time the REF was on the bus.
	OnRefresh func(refAt sim.Time)

	// BitErrorRate optionally flips each sampled pin level with this
	// probability, modelling marginal signal integrity (crosstalk,
	// impedance mismatch — the effects §VII-A says they mitigated with
	// terminations and impedance tuning). When a fault registry is
	// attached, the draw comes from the registry's single seeded RNG so
	// the whole run replays from one seed; otherwise from the detector's
	// own seeded generator.
	BitErrorRate float64
	rng          *sim.Rand

	// faults, when non-nil, additionally injects per-pin sample flips via
	// fault.RefdetSampleFlip — the registry-native home of the BER knob.
	faults *fault.Registry

	// Trace, when attached to sinks, publishes one KindRefDetect event per
	// resolved detection, carrying the claimed bus time of the REF. The
	// protocol auditor cross-checks that claim against the commands that
	// were actually on the bus: a false positive shows up as a detect
	// event whose RefAt matches no REF.
	Trace *trace.Recorder

	des   [NumPins]Deserializer
	stats Stats
	// detFree recycles decode-pipeline records (detection).
	detFree []*detection

	enabled bool
}

// New returns an enabled detector sampling at the channel's clock period.
func New(k *sim.Kernel, tck sim.Duration) *Detector {
	return &Detector{
		k:        k,
		tck:      tck,
		pipeline: 2 * tck,
		rng:      sim.NewRand(0xCA5),
		enabled:  true,
	}
}

// SetEnabled turns the detector on or off (the ablation with the mechanism
// disabled runs with the detector off and the NVMC free-running).
func (d *Detector) SetEnabled(v bool) { d.enabled = v }

// SetFaults attaches the fault-injection registry: sample flips can then be
// injected per-site (fault.RefdetSampleFlip) and the BitErrorRate knob draws
// from the registry's seeded RNG.
func (d *Detector) SetFaults(g *fault.Registry) { d.faults = g }

// SetSeed reseeds the detector's own sampling-noise RNG (used when no fault
// registry is attached); core plumbs its master seed here.
func (d *Detector) SetSeed(seed uint64) { d.rng = sim.NewRand(seed) }

// Enabled reports whether the detector is active.
func (d *Detector) Enabled() bool { return d.enabled }

// Stats returns the accumulated detection statistics.
func (d *Detector) Stats() Stats { return d.stats }

// WarpIdleRefreshCycles credits m clean PREA+REF refresh cycles without
// sampling them: two samples per cycle (PREA then REF), the REF decoding
// as a true-positive detection. Legal only on a noise-free detector
// (BitErrorRate zero, no fault registry) — the caller owns that proof —
// so no RNG draws are consumed and the deserializer state (untouched by
// the SampleCommand path) needs no adjustment. Detection events are not
// scheduled; the caller warps the downstream consumer directly.
func (d *Detector) WarpIdleRefreshCycles(m uint64) {
	if m == 0 || !d.enabled {
		return
	}
	d.stats.Samples += 2 * m
	d.stats.Detections += m
	d.stats.TruePositives += m
}

// Snoop returns the CA-bus observer to attach to the channel.
func (d *Detector) Snoop() func(at sim.Time, s ddr4.CAState) {
	return func(at sim.Time, s ddr4.CAState) { d.SampleCommand(at, s) }
}

func (d *Detector) noisy(s ddr4.CAState) ddr4.CAState {
	if d.BitErrorRate <= 0 && d.faults == nil {
		return s
	}
	rng := d.rng
	if d.faults != nil {
		rng = d.faults.Rand()
	}
	flip := func(b bool) bool {
		if d.faults.Fires(fault.RefdetSampleFlip) {
			return !b
		}
		if d.BitErrorRate > 0 && rng.Float64() < d.BitErrorRate {
			return !b
		}
		return b
	}
	return ddr4.CAState{
		CKE: flip(s.CKE), CSn: flip(s.CSn), ACTn: flip(s.ACTn),
		RASn: flip(s.RASn), CASn: flip(s.CASn), WEn: flip(s.WEn),
	}
}

// SampleCommand examines the CA state present on the bus at time at. In the
// full-system wiring the channel invokes this once per issued command; the
// deserializer frame boundary is derived from the wall-clock sample position
// so detection latency matches the RTL (up to one frame plus the decode
// pipeline).
func (d *Detector) SampleCommand(at sim.Time, s ddr4.CAState) {
	if !d.enabled {
		return
	}
	d.stats.Samples++
	isRef := ddr4.IsRefresh(s)
	seen := d.noisy(s)
	match := ddr4.IsRefresh(seen)
	switch {
	case match && isRef:
		d.stats.TruePositives++
	case match && !isRef:
		d.stats.FalsePositives++
	case !match && isRef:
		d.stats.MissedRefresh++
	}
	if !match {
		return
	}
	d.stats.Detections++
	// Position of this sample within its deserializer frame.
	pos := int((int64(at) / int64(d.tck)) % FrameBits)
	latency := sim.Duration(FrameBits-pos)*d.tck + d.pipeline
	var e *detection
	if n := len(d.detFree); n > 0 {
		e = d.detFree[n-1]
		d.detFree = d.detFree[:n-1]
	} else {
		e = &detection{d: d}
		e.resolveFn = e.resolve
	}
	e.refAt = at
	d.k.Schedule(latency, e.resolveFn)
}

// detection is one REF in the decode pipeline: refAt is when it was on the
// bus. The record returns to the detector's free list when the decode
// resolves; resolveFn is bound once, when the record is first made.
type detection struct {
	d         *Detector
	refAt     sim.Time
	resolveFn func()
}

// resolve publishes the detection and fires OnRefresh.
func (e *detection) resolve() {
	d, refAt := e.d, e.refAt
	d.detFree = append(d.detFree, e)
	if d.Trace.Active() {
		d.Trace.Record(trace.Event{
			At: d.k.Now(), Kind: trace.KindRefDetect, RefAt: refAt,
		})
	}
	if d.OnRefresh != nil {
		d.OnRefresh(refAt)
	}
}

// PushSample drives the RTL-level path directly: one sampled level per pin,
// in pin order {CKE, CS_n, ACT_n, RAS_n, CAS_n, WE_n}. Every eighth push
// completes a frame; the detector then scans all eight bit positions of the
// six words for the REFRESH pattern and returns how many positions matched.
// This is the path the deserializer unit tests and the exhaustive pattern
// tests exercise.
func (d *Detector) PushSample(levels [NumPins]bool) (matchesInFrame int) {
	var words [NumPins]uint8
	ready := false
	for i := 0; i < NumPins; i++ {
		w, r := d.des[i].Push(levels[i])
		words[i] = w
		ready = r
	}
	if !ready {
		return 0
	}
	return ScanFrame(words)
}

// ScanFrame checks each of the eight bit positions across the six pin words
// for the REFRESH pattern: CKE, ACT_n, WE_n high; CS_n, RAS_n, CAS_n low
// (§IV-A). It returns the number of positions that match.
func ScanFrame(words [NumPins]uint8) int {
	matches := 0
	for bitIdx := 0; bitIdx < FrameBits; bitIdx++ {
		bit := func(pin int) bool { return words[pin]&(1<<uint(FrameBits-1-bitIdx)) != 0 }
		s := ddr4.CAState{
			CKE: bit(0), CSn: bit(1), ACTn: bit(2),
			RASn: bit(3), CASn: bit(4), WEn: bit(5),
		}
		if ddr4.IsRefresh(s) {
			matches++
		}
	}
	return matches
}

// PinLevels converts a CA state to the pin-order array PushSample expects.
func PinLevels(s ddr4.CAState) [NumPins]bool {
	return [NumPins]bool{s.CKE, s.CSn, s.ACTn, s.RASn, s.CASn, s.WEn}
}
