// Package stream implements the STREAM benchmark kernels (Copy, Scale, Add,
// Triad) over a byte-addressable device, modified as in §VII-A: every
// iteration's results are compared against reference data so that any
// corruption — a bus conflict, a refresh-detector false positive, a botched
// window transfer — is caught immediately. The paper uses this aging test to
// validate the refresh-detection accuracy of the PoC.
package stream

import (
	"encoding/binary"
	"math"
)

// Memory is the byte-addressable device under test (the core.System or any
// functional equivalent). Load/Store complete via callback on the device's
// simulated timeline.
type Memory interface {
	Load(off int64, buf []byte, done func())
	Store(off int64, data []byte, done func())
}

// Runner drives the STREAM kernels.
type Runner struct {
	mem Memory
	// N is the element count of each vector (float64 elements).
	N int
	// Base offsets of the three vectors a, b, c.
	aOff, bOff, cOff int64

	scalar float64

	// Errors found by verification.
	Inconsistencies int
	Iterations      int
}

const elemSize = 8

// New lays out three N-element vectors starting at base.
func New(mem Memory, base int64, n int) *Runner {
	vecBytes := int64(n * elemSize)
	return &Runner{
		mem: mem, N: n,
		aOff: base, bOff: base + vecBytes, cOff: base + 2*vecBytes,
		scalar: 3.0,
	}
}

func encodeVec(v []float64) []byte {
	b := make([]byte, len(v)*elemSize)
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*elemSize:], floatBits(x))
	}
	return b
}

func decodeVec(b []byte) []float64 {
	v := make([]float64, len(b)/elemSize)
	for i := range v {
		v[i] = floatFromBits(binary.LittleEndian.Uint64(b[i*elemSize:]))
	}
	return v
}

// Init writes deterministic contents into a and b and zeroes c; done runs
// when the device acknowledges all stores.
func (r *Runner) Init(done func()) {
	a := make([]float64, r.N)
	b := make([]float64, r.N)
	for i := range a {
		a[i] = 1.0 + float64(i%97)
		b[i] = 2.0 + float64(i%89)
	}
	r.mem.Store(r.aOff, encodeVec(a), func() {
		r.mem.Store(r.bOff, encodeVec(b), func() {
			r.mem.Store(r.cOff, make([]byte, r.N*elemSize), done)
		})
	})
}

// RunIteration performs one full STREAM iteration — Copy (c=a), Scale
// (b=s*c), Add (c=a+b), Triad (a=b+s*c) — verifying each kernel's output
// against a host-computed reference. done receives the number of
// verification failures in this iteration.
func (r *Runner) RunIteration(done func(errors int)) {
	errs := 0
	// Load a and b to compute references.
	aBuf := make([]byte, r.N*elemSize)
	bBuf := make([]byte, r.N*elemSize)
	r.mem.Load(r.aOff, aBuf, func() {
		r.mem.Load(r.bOff, bBuf, func() {
			a := decodeVec(aBuf)
			b := decodeVec(bBuf)

			// Copy: c = a
			r.mem.Store(r.cOff, encodeVec(a), func() {
				r.verify(r.cOff, a, &errs, func() {
					// Scale: b = scalar * c   (c == a)
					nb := make([]float64, r.N)
					for i := range nb {
						nb[i] = r.scalar * a[i]
					}
					r.mem.Store(r.bOff, encodeVec(nb), func() {
						r.verify(r.bOff, nb, &errs, func() {
							// Add: c = a + b
							nc := make([]float64, r.N)
							for i := range nc {
								nc[i] = a[i] + nb[i]
							}
							r.mem.Store(r.cOff, encodeVec(nc), func() {
								r.verify(r.cOff, nc, &errs, func() {
									// Triad: a = b + scalar*c
									na := make([]float64, r.N)
									for i := range na {
										na[i] = nb[i] + r.scalar*nc[i]
									}
									r.mem.Store(r.aOff, encodeVec(na), func() {
										r.verify(r.aOff, na, &errs, func() {
											r.Iterations++
											r.Inconsistencies += errs
											done(errs)
										})
									})
								})
							})
						})
					})
				})
			})
			_ = b
		})
	})
}

// verify loads the vector at off and counts elements differing from want.
func (r *Runner) verify(off int64, want []float64, errs *int, next func()) {
	buf := make([]byte, len(want)*elemSize)
	r.mem.Load(off, buf, func() {
		got := decodeVec(buf)
		for i := range want {
			if got[i] != want[i] {
				*errs++
			}
		}
		next()
	})
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(u uint64) float64 { return math.Float64frombits(u) }
