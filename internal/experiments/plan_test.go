package experiments

import (
	"reflect"
	"slices"
	"testing"

	"nvdimmc/internal/fault"
)

// TestPlanRearm: every campaign row re-runs from its Point value alone. A
// faultpool, numa, overload or qos point, copied with its plan re-armed
// from the plan's text form (fault.ParsePlan(plan.String())), yields a row
// identical to the campaign's own at every -quick point; overload and qos
// write their calibrated rates into their points before sharding, so the
// copy carries them. Under -short it reruns a few cheap points against
// the same points run directly: the first point of every faultpool kind
// but program, whose points cost the most, two numa points, and one
// 300-request point each of overload and qos at nominal capacities (a
// re-run needs the rates in its point, not measured ones).
func TestPlanRearm(t *testing.T) {
	o := Options{Quick: true, Parallel: 2}
	fpPts, fpRow := faultPoolTable(o)
	numaPts, numaRow := numaTable(o)
	if testing.Short() {
		ovPts, ovRow := overloadTable(o, 2e4)
		qosPts, qosRow := qosTable(o, 2e4, 1e4)
		ovPts[5].Reqs, qosPts[0].Reqs = 300, 300 // 4x shed and isolation on, fault-free
		rerun(t, "faultpool", []int{1, 2, 3}, runRows(t, []int{1, 2, 3}, fpPts, fpRow), fpPts, fpRow)
		rerun(t, "numa", []int{1, 2}, runRows(t, []int{1, 2}, numaPts, numaRow), numaPts, numaRow)
		rerun(t, "overload", []int{5}, runRows(t, []int{5}, ovPts, ovRow), ovPts, ovRow)
		rerun(t, "qos", []int{0}, runRows(t, []int{0}, qosPts, qosRow), qosPts, qosRow)
		return
	}
	fp, err := FaultPool(o)
	if err != nil {
		t.Fatal(err)
	}
	nr, err := Numa(o)
	if err != nil {
		t.Fatal(err)
	}
	or, err := Overload(o)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := QoS(o)
	if err != nil {
		t.Fatal(err)
	}
	ovPts, ovRow := overloadTable(o, or.CapacityOps)
	qosPts, qosRow := qosTable(o, qr.CapacityOps, qr.UniformOps)
	all := func(n int) []int {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	rerun(t, "faultpool", all(len(fpPts)), fp.Rows, fpPts, fpRow)
	rerun(t, "numa", all(len(numaPts)), nr.Rows, numaPts, numaRow)
	rerun(t, "overload", all(len(ovPts)), or.Rows, ovPts, ovRow)
	rerun(t, "qos", all(len(qosPts)), qr.Rows, qosPts, qosRow)
}

// runRows runs points idx of pts, two at a time.
func runRows[R any](t *testing.T, idx []int, pts []Point, row func(int, Point) (R, error)) []R {
	t.Helper()
	rows, err := runShards(len(idx), 2, func(i int) (R, error) { return row(idx[i], pts[idx[i]]) })
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// rerun re-runs points idx of pts, whose rows are want, each from a copy
// of its value — the plan re-armed from its text, the tenants and shares
// in fresh slices — and compares the rows after a percentile query on
// each side fills the histograms' sort caches (a qos row's tenants' too).
func rerun[R interface{ outcome() Outcome }](t *testing.T, name string, idx []int, want []R, pts []Point, row func(int, Point) (R, error)) {
	t.Helper()
	copies := slices.Clone(pts)
	for _, i := range idx {
		p := &copies[i]
		if len(p.Plan) > 0 {
			q, err := fault.ParsePlan(p.Plan.String())
			if err != nil {
				t.Fatalf("%s point %d: ParsePlan(%q): %v", name, i, p.Plan, err)
			}
			p.Plan = q
		}
		p.Load.Tenants, p.Shares = slices.Clone(p.Load.Tenants), slices.Clone(p.Shares)
	}
	got := runRows(t, idx, copies, row)
	settle := func(r R) {
		r.outcome().Lat.Percentile(50)
		if q, ok := any(r).(QoSPoint); ok {
			for _, tr := range q.Tenants {
				tr.Lat.Percentile(50)
			}
		}
	}
	for i := range want {
		settle(want[i])
		settle(got[i])
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s point %d re-run from its value: %+v, want %+v", name, idx[i], got[i], want[i])
		}
	}
}
