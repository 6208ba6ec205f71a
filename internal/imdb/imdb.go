// Package imdb is a miniature in-memory column-store database engine — the
// stand-in for the SAP HANA IMDB the paper evaluates on (§VI). Tables are
// stored column-wise directly on a byte-addressable device (NVDIMM-C or the
// pmem baseline) through load/store, so query time comes from the simulated
// memory system and data integrity can be validated end-to-end, exactly what
// the mixed-load benchmark is for (§VII-B5).
//
// Operator compute costs model the engine's CPU work (aggregation,
// decompression, hashing): sequential scans are compute-heavy (which is why
// TPC-H Q1 is only ~3.3x slower on the PoC despite its misses), while point
// probes are cheap per access (why Q20's many small accesses amplify to
// ~78x). See EXPERIMENTS.md for the calibration.
package imdb

import (
	"encoding/binary"
	"fmt"

	"nvdimmc/internal/sim"
)

// Device is the byte-addressable storage under the database.
type Device interface {
	Load(off int64, buf []byte, done func())
	Store(off int64, data []byte, done func())
}

// Kernel is the subset of the simulation kernel the engine needs for
// compute-time modelling.
type Kernel interface {
	Schedule(d sim.Duration, fn func())
	Now() sim.Time
}

// CostModel holds the engine's CPU-work parameters.
type CostModel struct {
	// ScanComputePer4K is the aggregation/decompression work per 4 KB of
	// scanned column data.
	ScanComputePer4K sim.Duration
	// ProbeCompute is the work per point access (hash, compare).
	ProbeCompute sim.Duration
	// TxnCompute is the work per mixed-load transaction beyond its I/O.
	TxnCompute sim.Duration
}

// DefaultCost is calibrated so the TPC-H extremes land near the paper's
// (Q1 ~3.3x, Q20 ~78x on the PoC).
func DefaultCost() CostModel {
	return CostModel{
		ScanComputePer4K: 26 * sim.Microsecond,
		ProbeCompute:     500 * sim.Nanosecond,
		TxnCompute:       2 * sim.Microsecond,
	}
}

const elemSize = 8

// Column is one materialized column.
type Column struct {
	Name string
	Off  int64
	Rows int64
}

// Bytes returns the column's on-device size.
func (c Column) Bytes() int64 { return c.Rows * elemSize }

// Table is a column-wise table.
type Table struct {
	Name    string
	Rows    int64
	Columns []Column
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return &t.Columns[i]
		}
	}
	return nil
}

// Bytes returns the table footprint.
func (t *Table) Bytes() int64 {
	var n int64
	for _, c := range t.Columns {
		n += c.Bytes()
	}
	return n
}

// DB is a database instance on one device.
type DB struct {
	dev    Device
	k      Kernel
	cost   CostModel
	tables map[string]*Table
	// alloc is a bump allocator over the device address space.
	alloc    int64
	capacity int64

	// ChunkBytes is the scan I/O granularity.
	ChunkBytes int
}

// New creates an empty database over [0, capacity) of the device.
func New(dev Device, k Kernel, capacity int64, cost CostModel) *DB {
	return &DB{
		dev: dev, k: k, cost: cost,
		tables:     make(map[string]*Table),
		capacity:   capacity,
		ChunkBytes: 32 << 10,
	}
}

// Table returns a table by name.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// Gen produces the value for (row, column) when loading a table.
type Gen func(row int64, col int) int64

// CreateTable materializes a table with rows generated by gen, column by
// column, in chunk-sized stores. done receives the table or an error.
func (db *DB) CreateTable(name string, rows int64, colNames []string, gen Gen, done func(*Table, error)) {
	need := rows * elemSize * int64(len(colNames))
	if db.alloc+need > db.capacity {
		done(nil, fmt.Errorf("imdb: table %s needs %d bytes, %d available", name, need, db.capacity-db.alloc))
		return
	}
	t := &Table{Name: name, Rows: rows}
	for _, cn := range colNames {
		t.Columns = append(t.Columns, Column{Name: cn, Off: db.alloc, Rows: rows})
		db.alloc += rows * elemSize
	}
	db.tables[name] = t

	colIdx := 0
	var row int64
	chunkRows := int64(db.ChunkBytes / elemSize)
	var step func()
	step = func() {
		if colIdx >= len(t.Columns) {
			done(t, nil)
			return
		}
		col := &t.Columns[colIdx]
		n := chunkRows
		if row+n > rows {
			n = rows - row
		}
		buf := make([]byte, n*elemSize)
		for i := int64(0); i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*elemSize:], uint64(gen(row+i, colIdx)))
		}
		off := col.Off + row*elemSize
		row += n
		if row >= rows {
			row = 0
			colIdx++
		}
		db.dev.Store(off, buf, step)
	}
	step()
}

// ScanAgg sequentially scans a fraction of a column, applying agg to every
// value (passes times over the same range), and returns the final
// accumulator. This is the table-scan operator (TPC-H Q1 style).
func (db *DB) ScanAgg(table, column string, fraction float64, passes int, done func(sum int64, err error)) {
	t := db.tables[table]
	if t == nil {
		done(0, fmt.Errorf("imdb: no table %s", table))
		return
	}
	col := t.Column(column)
	if col == nil {
		done(0, fmt.Errorf("imdb: no column %s.%s", table, column))
		return
	}
	if fraction <= 0 || fraction > 1 {
		fraction = 1
	}
	if passes < 1 {
		passes = 1
	}
	rows := int64(float64(col.Rows) * fraction)
	bytesTotal := rows * elemSize
	var sum int64
	var pos int64
	pass := 0
	var step func()
	step = func() {
		if pos >= bytesTotal {
			pos = 0
			pass++
			if pass >= passes {
				done(sum, nil)
				return
			}
		}
		n := int64(db.ChunkBytes)
		if pos+n > bytesTotal {
			n = bytesTotal - pos
		}
		buf := make([]byte, n)
		off := col.Off + pos
		pos += n
		db.dev.Load(off, buf, func() {
			for i := 0; i+elemSize <= len(buf); i += elemSize {
				sum += int64(binary.LittleEndian.Uint64(buf[i:]))
			}
			// Engine compute for this chunk.
			compute := sim.Duration(float64(db.cost.ScanComputePer4K) * float64(n) / 4096)
			db.k.Schedule(compute, step)
		})
	}
	step()
}

// Probe performs count random point lookups of probeBytes each on a column
// (hash-probe / index-lookup operator; TPC-H Q20 style). Offsets come from
// rng for reproducibility. It returns the XOR of first bytes as a checksum.
func (db *DB) Probe(table, column string, count, probeBytes int, rng *sim.Rand, done func(sig byte, err error)) {
	t := db.tables[table]
	if t == nil {
		done(0, fmt.Errorf("imdb: no table %s", table))
		return
	}
	col := t.Column(column)
	if col == nil {
		done(0, fmt.Errorf("imdb: no column %s.%s", table, column))
		return
	}
	if probeBytes < elemSize {
		probeBytes = elemSize
	}
	span := col.Bytes() - int64(probeBytes)
	if span < 1 {
		span = 1
	}
	var sig byte
	i := 0
	buf := make([]byte, probeBytes)
	var step func()
	step = func() {
		if i >= count {
			done(sig, nil)
			return
		}
		i++
		off := col.Off + rng.Int63n(span)
		off -= off % elemSize
		db.dev.Load(off, buf, func() {
			sig ^= buf[0]
			db.k.Schedule(db.cost.ProbeCompute, step)
		})
	}
	step()
}

// ProbeTable performs count random point lookups spread across the entire
// table footprint (every column), modelling engines whose row-wise accesses
// touch interleaved column fragments — the access spread behind TPC-H Q20's
// small-I/O storm (§VII-B5, reference [30]).
func (db *DB) ProbeTable(table string, count, probeBytes int, rng *sim.Rand, done func(sig byte, err error)) {
	t := db.tables[table]
	if t == nil {
		done(0, fmt.Errorf("imdb: no table %s", table))
		return
	}
	if len(t.Columns) == 0 {
		done(0, fmt.Errorf("imdb: table %s has no columns", table))
		return
	}
	if probeBytes < elemSize {
		probeBytes = elemSize
	}
	base := t.Columns[0].Off
	span := t.Bytes() - int64(probeBytes)
	if span < 1 {
		span = 1
	}
	var sig byte
	i := 0
	buf := make([]byte, probeBytes)
	var step func()
	step = func() {
		if i >= count {
			done(sig, nil)
			return
		}
		i++
		off := base + rng.Int63n(span)
		off -= off % elemSize
		db.dev.Load(off, buf, func() {
			sig ^= buf[0]
			db.k.Schedule(db.cost.ProbeCompute, step)
		})
	}
	step()
}
