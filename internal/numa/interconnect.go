// Cross-socket interconnect: the METICULOUS approach — emulate remote
// memory by injecting configurable latency and bandwidth rather than
// simulating link microarchitecture. Each directed (src, dst) link carries
// a one-way latency and a bandwidth modeled as deterministic queueing on a
// busy-until horizon: a transfer serializes behind the link's previous
// transfers, occupies bytes/bandwidth of wire time, then lands one latency
// later. All arithmetic is in fabric instants and mutates only at epoch boundaries (dispatch/collect), so the model is
// deterministic at any worker count.
package numa

import "nvdimmc/internal/sim"

type link struct {
	lat  sim.Duration
	bw   int64    // bytes per simulated second
	busy sim.Time // wire busy-until horizon
}

type interconnect struct {
	n     int
	links []link // src*n + dst; diagonal unused
}

func newInterconnect(n int, lat sim.Duration, bw int64) *interconnect {
	ic := &interconnect{n: n, links: make([]link, n*n)}
	for i := range ic.links {
		ic.links[i] = link{lat: lat, bw: bw}
	}
	return ic
}

// xfer models one transfer of bytes from src to dst starting no earlier
// than at, and returns the arrival instant. Local transfers (src == dst)
// are free: the fabric only charges the wire for actual socket crossings.
func (ic *interconnect) xfer(src, dst, bytes int, at sim.Time) sim.Time {
	if src == dst {
		return at
	}
	l := &ic.links[src*ic.n+dst]
	tx := sim.Duration(int64(bytes) * int64(sim.Second) / l.bw)
	if tx <= 0 {
		tx = 1 // never zero wire time: keeps busy horizons strictly advancing
	}
	l.busy = max(at, l.busy).Add(tx)
	return l.busy.Add(l.lat)
}

// degrade applies a LinkFault to every link touching socket (both
// directions), or to every link when socket < 0.
func (ic *interconnect) degrade(socket, latFactor, bwDivide int) {
	for src := 0; src < ic.n; src++ {
		for dst := 0; dst < ic.n; dst++ {
			if src == dst {
				continue
			}
			if socket >= 0 && src != socket && dst != socket {
				continue
			}
			l := &ic.links[src*ic.n+dst]
			if latFactor > 1 {
				l.lat *= sim.Duration(latFactor)
			}
			if bwDivide > 1 {
				l.bw /= int64(bwDivide)
				if l.bw < 1 {
					l.bw = 1
				}
			}
		}
	}
}

// applyLinkFaults fires every scheduled LinkFault whose epoch boundary
// this is, in schedule order.
func (f *Fabric) applyLinkFaults() {
	for _, lf := range f.Cfg.LinkFaults {
		if lf.Epoch == f.sup.Epochs {
			f.links.degrade(lf.Socket, lf.LatFactor, lf.BWDivide)
			f.ctr.Inc("link-degraded")
		}
	}
}
