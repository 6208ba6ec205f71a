package experiments

import (
	"reflect"
	"testing"

	"nvdimmc/internal/fault"
)

// TestPlanRearm: a faultpool or numa point re-armed from its plan's text
// form, fault.ParsePlan(plan.String()), yields a row identical to the
// campaign's own, at every -quick point. Under -short it reruns the first
// point of every kind but program, whose points cost the most, against the
// same points run with the campaign's plans.
func TestPlanRearm(t *testing.T) {
	o := Options{Quick: true, Parallel: 2}
	fpReqs, numaReqs := o.pick(600, 300), o.pick(400, 250) // FaultPool's and Numa's
	fpPoint := func(pt int, plan fault.Plan) (FaultPoolPoint, error) { return faultPoolPoint(o, pt, fpReqs, plan) }
	numaPt := func(pt int, plan fault.Plan) (NumaPoint, error) { return numaPoint(o, pt, numaReqs, plan) }
	var fpRows []FaultPoolPoint
	var numaRows []NumaPoint
	if testing.Short() {
		fpRows = runPoints(t, []int{1, 2, 3}, faultPoolPlan, fpPoint)
		numaRows = runPoints(t, []int{1, 2}, numaPlan, numaPt)
	} else {
		fp, err := FaultPool(o)
		if err != nil {
			t.Fatal(err)
		}
		nr, err := Numa(o)
		if err != nil {
			t.Fatal(err)
		}
		fpRows, numaRows = fp.Rows, nr.Rows
	}
	reparsed := func(plan func(int) fault.Plan) func(int) fault.Plan {
		return func(pt int) fault.Plan {
			q, err := fault.ParsePlan(plan(pt).String())
			if err != nil {
				t.Fatalf("point %d: ParsePlan(%q): %v", pt, plan(pt), err)
			}
			return q
		}
	}
	var pts []int
	for _, r := range fpRows {
		pts = append(pts, r.Point)
	}
	checkRows(t, "faultpool", fpRows, runPoints(t, pts, reparsed(faultPoolPlan), fpPoint))
	pts = pts[:0]
	for _, r := range numaRows {
		pts = append(pts, r.Point)
	}
	checkRows(t, "numa", numaRows, runPoints(t, pts, reparsed(numaPlan), numaPt))
}

// runPoints runs points pts, each armed with plan(pt), two at a time.
func runPoints[P any](t *testing.T, pts []int, plan func(int) fault.Plan, run func(int, fault.Plan) (P, error)) []P {
	t.Helper()
	rows, err := runShards(len(pts), 2, func(i int) (P, error) { return run(pts[i], plan(pts[i])) })
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// checkRows compares re-armed rows with the campaign's, after a percentile
// query on each side fills the histograms' sort caches.
func checkRows[P interface{ outcome() Outcome }](t *testing.T, name string, want, got []P) {
	t.Helper()
	for i := range want {
		want[i].outcome().Lat.Percentile(50)
		got[i].outcome().Lat.Percentile(50)
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s row %d re-armed from its plan's text: %+v, want %+v", name, i, got[i], want[i])
		}
	}
}
