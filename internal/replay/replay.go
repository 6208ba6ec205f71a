package replay

import (
	"fmt"
	"io"

	"nvdimmc/internal/pool"
	"nvdimmc/internal/workload/openloop"
)

// Stats describes one replay drive.
type Stats struct {
	// Ops is how many trace records were submitted to the plane.
	Ops int
	// Retimed counts records whose arrival the reader clamped up to its
	// predecessor to keep the stream non-decreasing.
	Retimed int
}

// Drive replays up to limit records (limit <= 0: the whole trace) from r
// through the request plane pl (a socket pool or a NUMA fabric) and returns
// once every admitted request reached a terminal outcome.
//
// Determinism contract: a trace fixes each record's arrival instant, and
// the plane re-times that instant onto an epoch boundary — an arrival is
// admitted at the first boundary at or after it, the same single-threaded
// instant at any worker count (DESIGN.md §9/§11). Everything downstream of
// admission (dispatch, deadlines, retries, QoS) already keys off boundary
// state only, so a replayed run is byte-identical at 1 or N workers and
// with the lookahead scheduler on or off — and byte-identical to the live
// run the trace was captured from, because capture records exactly the
// stream the live plane admitted. Wall-clock jitter in the capture source
// (a network service under real concurrent clients) lands in the trace as
// slightly different arrival instants, but once written the trace is the
// truth: every replay of it is exact.
//
// Records that address outside the plane (a trace captured on a larger
// socket) fail the drive before submission — replay refuses to silently
// wrap or truncate offsets.
func Drive(pl pool.Plane, r *Reader, limit int) (Stats, error) {
	var st Stats
	var rdErr error
	capacity := pl.Capacity()
	err := pool.Run(pl, func() (openloop.Request, bool) {
		if limit > 0 && st.Ops >= limit {
			return openloop.Request{}, false
		}
		q, err := r.Next()
		if err != nil {
			if err != io.EOF {
				rdErr = err
			}
			return openloop.Request{}, false
		}
		if q.Off+int64(q.Len) > capacity {
			rdErr = fmt.Errorf("replay: record %d addresses [%d, %d) beyond plane capacity %d — trace captured on a larger socket?",
				r.Records(), q.Off, q.Off+int64(q.Len), capacity)
			return openloop.Request{}, false
		}
		st.Ops++
		return q, true
	}, nil)
	st.Retimed = r.Retimed()
	if rdErr != nil {
		return st, rdErr
	}
	if err != nil {
		return st, fmt.Errorf("replay: drive: %w", err)
	}
	return st, nil
}
