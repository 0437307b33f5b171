package main

// The correctness gate. Every timed answer is compared with the
// centralized reference answer, computed before the timed phases and kept
// in a compact form: the row count, a digest of the schema and of every
// non-float value, and the float values themselves.
//
// Non-float values must match exactly. Float aggregates (AVG) may differ
// from the reference in their last bits, because the coordinator adds the
// sites' partial sums in arrival order while the reference adds the rows
// in table order; they must agree within floatTolerance, the bound the
// repository's own tests use. The gate counts how many answers were also
// byte-identical to the reference, so that share stays visible.

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/relation"
	"repro/internal/value"
)

// floatTolerance is the relative difference allowed between a float in an
// answer and in the reference.
const floatTolerance = 1e-9

// answer is the compact form of a result.
type answer struct {
	rows   int
	exact  [sha256.Size]byte // schema and every non-float value
	floats []float64
}

// answerOf canonicalizes a result: rows in the result's own order when
// ordered is set (ORDER BY), otherwise sorted on the non-float columns
// first (the GROUP BY keys, unique per row) and the float columns after.
func answerOf(r *relation.Relation, ordered bool) answer {
	rows := r.Rows
	if !ordered {
		rows = append([]relation.Row(nil), r.Rows...)
		sort.Slice(rows, func(i, j int) bool { return canonLess(rows[i], rows[j]) })
	}
	h := sha256.New()
	var buf []byte
	for _, c := range r.Schema.Cols {
		buf = append(buf, c.Name...)
		buf = append(buf, 0, byte(c.Kind))
	}
	a := answer{rows: len(r.Rows)}
	for _, row := range rows {
		for _, v := range row {
			buf = append(buf, byte(v.K))
			switch v.K {
			case value.KindFloat:
				a.floats = append(a.floats, v.F)
			case value.KindString:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(len(v.S)))
				buf = append(buf, v.S...)
			default:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
			}
		}
		if len(buf) > 1<<16 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	h.Sum(a.exact[:0])
	return a
}

// matches reports whether got is the reference answer, and whether it is
// byte-identical to it.
func (ref *answer) matches(got *answer) (ok, identical bool) {
	if got.rows != ref.rows || got.exact != ref.exact || len(got.floats) != len(ref.floats) {
		return false, false
	}
	identical = true
	for i, want := range ref.floats {
		g := got.floats[i]
		if math.Float64bits(g) == math.Float64bits(want) {
			continue
		}
		identical = false
		if !(math.Abs(g-want) <= floatTolerance*(1+math.Abs(want))) {
			return false, false
		}
	}
	return true, identical
}

// canonLess orders rows on their non-float values, then their floats.
func canonLess(a, b relation.Row) bool {
	for pass := 0; pass < 2; pass++ {
		for i := range a {
			if (a[i].K == value.KindFloat) != (pass == 1) {
				continue
			}
			if value.Less(a[i], b[i]) {
				return true
			}
			if value.Less(b[i], a[i]) {
				return false
			}
		}
	}
	return false
}
