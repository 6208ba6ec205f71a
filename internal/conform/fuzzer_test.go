package conform

import (
	"reflect"
	"strings"
	"testing"

	"nvdimmc/internal/fault"
)

func TestNewPlanDeterministic(t *testing.T) {
	a := NewPlan(0xBEEF, 100, 64, true)
	b := NewPlan(0xBEEF, 100, 64, true)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	c := NewPlan(0xBEF0, 100, 64, true)
	if reflect.DeepEqual(a.Ops, c.Ops) {
		t.Fatal("different seeds produced identical op streams")
	}
}

func TestNewPlanShape(t *testing.T) {
	sawFaults := false
	var kinds [3]int
	for seed := uint64(0); seed < 200; seed++ {
		p := NewPlan(seed, 80, 32, seed%2 == 1)
		if p.TRFC >= p.TREFI {
			t.Fatalf("seed %d: tRFC %v >= tREFI %v (imc.New would reject)", seed, p.TRFC, p.TREFI)
		}
		if n := len(p.Ops); n < 40 || n > 80 {
			t.Fatalf("seed %d: %d ops outside [maxOps/2, maxOps]", seed, n)
		}
		for _, op := range p.Ops {
			if op.LPN < 0 || op.LPN >= 32 {
				t.Fatalf("seed %d: lpn %d outside range", seed, op.LPN)
			}
			kinds[op.Kind]++
		}
		if seed%2 == 0 && len(p.Faults) != 0 {
			t.Fatalf("seed %d: faults without withFaults", seed)
		}
		if seed%2 == 1 {
			if len(p.Faults) < 1 || len(p.Faults) > 3 {
				t.Fatalf("seed %d: %d fault arms outside [1,3]", seed, len(p.Faults))
			}
			sawFaults = true
			for _, f := range p.Faults {
				if f.Site == fault.RefdetSampleFlip {
					t.Fatalf("seed %d: armed the designed-fatal detector flip", seed)
				}
				if f.Prob <= 0 && f.OnNth == 0 {
					t.Fatalf("seed %d: arm %v neither probabilistic nor occurrence-based", seed, f)
				}
			}
		}
	}
	if !sawFaults {
		t.Fatal("no plan armed faults")
	}
	for k, n := range kinds {
		if n == 0 {
			t.Fatalf("op kind %v never generated across 200 plans", OpKind(k))
		}
	}
}

func TestPlanArm(t *testing.T) {
	reg := fault.NewRegistry(1)
	p := Plan{Faults: []FaultArm{
		{Site: fault.NANDReadBitFlip, OnNth: 1, Times: 1},
		{Site: fault.CPAckDrop, Prob: 1.0},
	}}
	p.Arm(reg)
	if !reg.Fires(fault.NANDReadBitFlip) {
		t.Fatal("occurrence arm did not fire on first consultation")
	}
	if reg.Fires(fault.NANDReadBitFlip) {
		t.Fatal("Times(1) arm fired twice")
	}
	if !reg.Fires(fault.CPAckDrop) {
		t.Fatal("p=1.0 arm did not fire")
	}
}

func TestPlanString(t *testing.T) {
	p := NewPlan(0xABCD, 40, 16, true)
	s := p.String()
	for _, want := range []string{"seed=0xabcd", "ops=", "tREFI=", "faults="} {
		if !strings.Contains(s, want) {
			t.Fatalf("plan string %q missing %q", s, want)
		}
	}
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpFlush.String() != "flush" {
		t.Fatal("OpKind strings")
	}
}
