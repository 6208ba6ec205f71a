// Package fault is the deterministic fault-injection registry every device
// model in the simulated machine consults. The paper's contribution is a
// module that survives a hostile interface — collisions, stale cachelines, a
// weak persistence domain (§V-C) — and real PM studies show media/firmware
// error handling dominates tail behaviour, so the error paths need to be
// exercisable on demand, not just on the happy path.
//
// A Registry holds rules keyed by injection Site (one hardware failure
// point, named by a stable string such as "nand.program.fail"). Three rule
// shapes cover the fault-model space:
//
//   - point faults (Always): fire on every occurrence of the site;
//   - probabilistic faults (Prob): fire per-occurrence with probability p,
//     drawn from the registry's single seeded RNG;
//   - one-shot faults (OnOccurrence): fire exactly once, at an exact site
//     occurrence count.
//
// Every random draw comes from one xorshift RNG seeded at construction, and
// consult order inside the discrete-event simulation is deterministic, so any
// fault run — including the crash-consistency sweep — is reproducible from
// the single seed the failure output prints.
//
// Models consult sites through the nil-safe Fires/FiresParam so an unfaulted
// build pays only a nil check.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"nvdimmc/internal/sim"
)

// Site names one injection point in a device model. Sites are dense small
// integers, so a consult indexes the registry's per-site slices; String
// gives the stable name used in failure output.
type Site uint8

// The site catalog. Each constant is consulted by exactly one model; the
// string form appears in failure output and in Registry.String().
const (
	// NANDReadBitFlip injects raw bit errors into one page read. The rule
	// param is the number of flipped bits (0 means one beyond the ECC
	// correction budget, i.e. an uncorrectable codeword).
	NANDReadBitFlip Site = iota
	// NANDProgramFail fails one page program (grown-bad-block behaviour).
	NANDProgramFail
	// NANDEraseFail fails one block erase.
	NANDEraseFail
	// NANDDieTimeout multiplies one die operation's latency by the rule
	// param (default 400x), modelling a die that stops responding for a
	// while — long enough to trip the driver's ack deadline.
	NANDDieTimeout
	// CPAckDrop makes the NVMC complete a command without ever posting its
	// ack word (the driver's poll loop sees silence).
	CPAckDrop
	// CPAckCorrupt flips one bit of the posted ack word so the driver's
	// checksum validation rejects it.
	CPAckCorrupt
	// NVMCFirmwareStall freezes the firmware for param microseconds
	// (default 2000) between command poll and dispatch.
	NVMCFirmwareStall
	// NVMCWindowOverrun aborts one data transfer at the window boundary;
	// the FSM retries it in the next extra-tRFC window.
	NVMCWindowOverrun
	// BusSnoopDrop drops one CA-bus sample before it reaches the snoop taps
	// (a transient deserializer glitch; a dropped REF costs one window).
	BusSnoopDrop
	// RefdetSampleFlip flips one sampled CA pin level inside the refresh
	// detector (the migrated home of refdet's ad-hoc bit-error-rate knob).
	RefdetSampleFlip

	numSites = iota
)

var siteNames = [numSites]string{
	NANDReadBitFlip:   "nand.read.bitflip",
	NANDProgramFail:   "nand.program.fail",
	NANDEraseFail:     "nand.erase.fail",
	NANDDieTimeout:    "nand.die.timeout",
	CPAckDrop:         "cp.ack.drop",
	CPAckCorrupt:      "cp.ack.corrupt",
	NVMCFirmwareStall: "nvmc.firmware.stall",
	NVMCWindowOverrun: "nvmc.window.overrun",
	BusSnoopDrop:      "bus.snoop.drop",
	RefdetSampleFlip:  "refdet.sample.flip",
}

// String returns the site's stable name, e.g. "nand.program.fail".
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("fault.Site(%d)", uint8(s))
}

// Rule is one armed fault. Returned by the install methods so callers can
// chain Param/Times refinements.
type Rule struct {
	site  Site
	prob  float64 // probabilistic when > 0
	onNth uint64  // fires from the Nth occurrence (1-based) when > 0
	param int64

	maxFires uint64 // 0 = unlimited
	fired    uint64
}

// Param attaches a site-specific payload to the rule (bit count for
// NANDReadBitFlip, latency multiplier for NANDDieTimeout, stall microseconds
// for NVMCFirmwareStall). Returns the rule for chaining.
func (r *Rule) Param(v int64) *Rule {
	r.param = v
	return r
}

// Times caps how often the rule fires. One-shot rules default to 1; Always
// and Prob rules default to unlimited. OnOccurrence(n).Times(3) fires on
// occurrences n, n+1 and n+2.
func (r *Rule) Times(n uint64) *Rule {
	r.maxFires = n
	return r
}

// Fired reports how many times this rule has fired.
func (r *Rule) Fired() uint64 { return r.fired }

func (r *Rule) String() string {
	switch {
	case r.prob > 0:
		return fmt.Sprintf("%s prob=%g", r.site, r.prob)
	case r.onNth > 0:
		return fmt.Sprintf("%s on-occurrence=%d times=%d", r.site, r.onNth, r.maxFires)
	default:
		return fmt.Sprintf("%s always", r.site)
	}
}

// Registry holds the armed rules and the one seeded RNG all probabilistic
// draws come from. The zero value is not usable; a nil *Registry is inert
// (all consults report no fault), so models hold one unconditionally.
type Registry struct {
	seed uint64
	rng  *sim.Rand

	rules      [numSites][]*Rule
	hits       [numSites]uint64
	firedTotal uint64
}

// NewRegistry returns an empty registry seeded with seed.
func NewRegistry(seed uint64) *Registry {
	return &Registry{
		seed: seed,
		rng:  sim.NewRand(seed),
	}
}

// Rand exposes the registry's seeded RNG for injectors that need payload
// randomness (e.g. which ack bit to corrupt) tied to the same seed.
func (g *Registry) Rand() *sim.Rand { return g.rng }

// Always arms a point fault: every occurrence of site fires.
func (g *Registry) Always(site Site) *Rule {
	return g.install(&Rule{site: site})
}

// Prob arms a probabilistic fault firing with probability p per occurrence.
func (g *Registry) Prob(site Site, p float64) *Rule {
	return g.install(&Rule{site: site, prob: p})
}

// OnOccurrence arms a one-shot fault firing at the site's nth consult
// (1-based) since the registry was armed.
func (g *Registry) OnOccurrence(site Site, n uint64) *Rule {
	return g.install(&Rule{site: site, onNth: n, maxFires: 1})
}

func (g *Registry) install(r *Rule) *Rule {
	g.rules[r.site] = append(g.rules[r.site], r)
	return r
}

// Clear disarms every rule on site.
func (g *Registry) Clear(site Site) {
	g.rules[site] = nil
}

// Fires reports whether an armed rule fires for this occurrence of site.
// Each call counts one occurrence. Nil-safe: a nil registry never fires.
func (g *Registry) Fires(site Site) bool {
	ok, _ := g.FiresParam(site)
	return ok
}

// FiresParam is Fires plus the firing rule's param payload (0 if none).
func (g *Registry) FiresParam(site Site) (bool, int64) {
	if g == nil {
		return false, 0
	}
	g.hits[site]++
	n := g.hits[site]
	for _, r := range g.rules[site] {
		if r.maxFires > 0 && r.fired >= r.maxFires {
			continue
		}
		match := false
		switch {
		case r.prob > 0:
			match = g.rng.Float64() < r.prob
		case r.onNth > 0:
			match = n >= r.onNth
		default:
			match = true
		}
		if match {
			r.fired++
			g.firedTotal++
			return true, r.param
		}
	}
	return false, 0
}

// Hits reports how many times site has been consulted.
func (g *Registry) Hits(site Site) uint64 {
	if g == nil {
		return 0
	}
	return g.hits[site]
}

// Fired reports how many faults have fired on site.
func (g *Registry) Fired(site Site) uint64 {
	if g == nil {
		return 0
	}
	var n uint64
	for _, r := range g.rules[site] {
		n += r.fired
	}
	return n
}

// TotalFired reports faults fired across all sites. CheckHealth uses it to
// decide whether nonzero driver error counters are legitimate.
func (g *Registry) TotalFired() uint64 {
	if g == nil {
		return 0
	}
	return g.firedTotal
}

// String renders the registry for failure output: the replay seed plus every
// armed rule with its fire count.
func (g *Registry) String() string {
	if g == nil {
		return "fault registry: none"
	}
	var sites []Site
	for s := range g.rules {
		if len(g.rules[s]) > 0 {
			sites = append(sites, Site(s))
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].String() < sites[j].String() })
	var b strings.Builder
	fmt.Fprintf(&b, "fault registry seed=%#x", g.seed)
	for _, s := range sites {
		for _, r := range g.rules[s] {
			fmt.Fprintf(&b, "; %v fired=%d/%d hits", r, r.fired, g.hits[s])
		}
	}
	return b.String()
}
