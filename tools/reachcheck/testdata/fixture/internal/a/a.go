// Package a is the reachcheck test fixture: each declaration is reached,
// unreached or set in one of the ways the scanner must tell apart.
package a

// Used is called by the binary.
func Used() int { return 1 }

// Unused is called by nothing.
func Unused() int { return 2 }

// T has methods with both receiver kinds.
type T struct{ n int }

// PtrUsed is called through a pointer.
func (t *T) PtrUsed() int { return t.n }

// PtrUnused is called by nothing.
func (t *T) PtrUnused() int { return t.n + 1 }

// ValUsed is called on a value.
func (t T) ValUsed() int { return t.n + 2 }

// ValUnused is called by nothing.
func (t T) ValUnused() int { return t.n + 3 }

// Generic is instantiated by the binary.
func Generic[X any](x X) X { return x }

// GenericUnused is instantiated by nothing.
func GenericUnused[X any](x X) X { return x }

// Box is a generic receiver.
type Box[X any] struct{ v X }

// Get is called on a Box[int].
func (b *Box[X]) Get() X { return b.v }

// Put is called by nothing.
func (b *Box[X]) Put(v X) { b.v = v }

// Config has a field of each kind.
type Config struct {
	Set      int
	NeverSet int
	TestOnly int
	Inner    InnerConfig
}

// InnerConfig is reached only through Config.Inner.
type InnerConfig struct {
	X int
	Y int
}

// DefaultConfig sets NeverSet, which does not count: it is in the same file.
func DefaultConfig() Config { return Config{NeverSet: 3} }
