// IMC population and maintenance observability: one counter bump per
// population operation plus row/byte volume, accumulated locally during
// the scan and flushed once per population; one per written row a
// subscribed store computed the image of, and one per fold.

package imc

import "repro/internal/metrics"

var (
	mPopulations = metrics.NewCounter("imc.populations", "population operations completed (OSON, shared OSON, or VC vector)")
	mPopRows     = metrics.NewCounter("imc.rows_populated", "rows materialized into the in-memory store")
	mPopBytes    = metrics.NewCounter("imc.bytes_populated", "in-memory bytes produced by populations")

	// The dictionary/codes split of the string-vector footprint: the
	// dictionary holds each distinct string once, the codes array holds
	// the 4-byte per-row indexes. Gauges, adjusted when a vector is
	// (re)populated.
	gBytesDict  = metrics.NewGauge("imc.bytes.dict", "bytes held by string-vector dictionaries (distinct values, counted once)")
	gBytesCodes = metrics.NewGauge("imc.bytes.codes", "bytes held by string-vector code arrays (4 bytes per row)")

	// DML maintenance (image.go): a store attached to an engine is told of
	// every write to its table.
	mRowsMaintained = metrics.NewCounter("imc.rows_maintained", "written rows whose in-memory image an attached store computed (one OSON encode and one evaluation per populated virtual column each)")
	mFolds          = metrics.NewCounter("imc.folds", "times the rows pending since population were folded into fresh vectors")
	gDeltaRows      = metrics.NewGauge("imc.delta.rows", "rows attached stores currently serve from their delta instead of their vectors")
)
