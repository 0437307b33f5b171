package relation

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/value"
)

// rowGob mirrors Relation without its wire methods, so gob encodes it
// the way relations travelled before the columnar payload: one reflected
// value.V struct per scalar.
type rowGob struct {
	Schema *Schema
	Rows   []Row
}

func gobRoundTrip[T any](t testing.TB, in *T) (*T, int) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	n := buf.Len()
	out := new(T)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out, n
}

// viaRowGob is what the row-wise gob path delivered for r.
func viaRowGob(t testing.TB, r *Relation) *Relation {
	t.Helper()
	out, _ := gobRoundTrip(t, &rowGob{Schema: r.Schema, Rows: r.Rows})
	return &Relation{Schema: out.Schema, Rows: out.Rows}
}

// sameBits reports whether two relations hold the same schema and
// bit-identical values (floats compared by their IEEE bits).
func sameBits(a, b *Relation) bool {
	if (a.Schema == nil) != (b.Schema == nil) {
		return false
	}
	if a.Schema != nil && !reflect.DeepEqual(a.Schema.Cols, b.Schema.Cols) &&
		!(len(a.Schema.Cols) == 0 && len(b.Schema.Cols) == 0) {
		return false
	}
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j, v := range a.Rows[i] {
			w := b.Rows[i][j]
			if v.K != w.K || v.I != w.I || v.S != w.S || math.Float64bits(v.F) != math.Float64bits(w.F) {
				return false
			}
		}
	}
	return true
}

func hasNaN(r *Relation) bool {
	for _, row := range r.Rows {
		for _, v := range row {
			if v.F != v.F {
				return true
			}
		}
	}
	return false
}

func wireFixtures() map[string]*Relation {
	ints := MustSchema(Column{"k", value.KindInt}, Column{"s", value.KindString},
		Column{"f", value.KindFloat}, Column{"b", value.KindBool})
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0xfff0000000000abc)
	fx := map[string]*Relation{
		"nil schema, no rows":     {},
		"zero columns":            {Schema: &Schema{}},
		"empty column slice":      {Schema: &Schema{Cols: []Column{}}},
		"zero rows":               New(ints),
		"empty rows slice":        {Schema: ints, Rows: []Row{}},
		"zero-width rows":         {Schema: &Schema{}, Rows: []Row{{}, nil, {}}},
		"nil schema with rows":    {Rows: []Row{{value.NewInt(1)}}},
		"ragged rows":             {Schema: ints, Rows: []Row{{value.NewInt(1)}, {}, {value.NewString("x"), value.Null}}},
		"unknown kind":            {Schema: MustSchema(Column{"x", value.Kind(9)}), Rows: []Row{{value.V{K: 9, I: 3}}}},
		"all null":                {Schema: MustSchema(Column{"x", value.KindInt}), Rows: []Row{{value.Null}, {value.Null}}},
		"mixed kinds":             {Schema: MustSchema(Column{"x", value.KindInt}), Rows: []Row{{value.NewInt(1)}, {value.NewFloat(2.5)}, {value.NewString("")}, {value.Null}, {value.NewBool(true)}}},
		"non-canonical":           {Schema: MustSchema(Column{"x", value.KindInt}), Rows: []Row{{value.V{K: value.KindInt, I: 1, S: "stray"}}, {value.V{K: value.KindNull, F: 1}}}},
		"stray float bits":        {Schema: MustSchema(Column{"x", value.KindString}), Rows: []Row{{value.V{K: value.KindString, S: "a", F: math.Copysign(0, -1)}}}},
		"negative zero and nan":   {Schema: MustSchema(Column{"f", value.KindFloat}), Rows: []Row{{value.NewFloat(math.Copysign(0, -1))}, {value.NewFloat(nan1)}, {value.NewFloat(nan2)}, {value.NewFloat(math.Inf(-1))}, {value.Null}}},
		"empty strings and nulls": {Schema: MustSchema(Column{"s", value.KindString}), Rows: []Row{{value.NewString("")}, {value.Null}, {value.NewString("")}, {value.NewString("é\x00")}}},
		"bool payloads":           {Schema: MustSchema(Column{"b", value.KindBool}), Rows: []Row{{value.NewBool(true)}, {value.V{K: value.KindBool, I: -7}}, {value.NewBool(false)}}},
	}
	big := New(ints)
	for i := 0; i < 300; i++ {
		row := Row{value.NewInt(int64(i*i) - 5000), value.NewString([]string{"AIR", "RAIL", "SHIP"}[i%3]),
			value.NewFloat(float64(i) / 7), value.NewBool(i%2 == 0)}
		if i%17 == 0 {
			row[i%4] = value.Null
		}
		big.Rows = append(big.Rows, row)
	}
	big.Rows = append(big.Rows, Row{value.NewInt(math.MinInt64), value.NewString(""), value.NewFloat(math.MaxFloat64), value.Null},
		Row{value.NewInt(math.MaxInt64), value.Null, value.Null, value.NewBool(true)})
	fx["typed columns"] = big
	return fx
}

// TestRelationWireRoundTrip: every fixture decodes to what the row-wise
// gob path delivered (reflect.DeepEqual, nil-vs-empty included), and to
// the original values bit for bit.
func TestRelationWireRoundTrip(t *testing.T) {
	for name, r := range wireFixtures() {
		t.Run(name, func(t *testing.T) {
			got, _ := gobRoundTrip(t, r)
			if !sameBits(got, r) {
				t.Fatalf("values changed:\n got %#v\nwant %#v", got, r)
			}
			if hasNaN(r) {
				return // NaN != NaN defeats DeepEqual; sameBits covered it
			}
			if old := viaRowGob(t, r); !reflect.DeepEqual(got, old) {
				t.Fatalf("differs from the row-wise gob decode:\n got %#v\nwant %#v", got, old)
			}
		})
	}
}

// TestRelationWireDeterministic: the same relation always encodes to the
// same bytes, however many distinct strings its dictionaries hold.
func TestRelationWireDeterministic(t *testing.T) {
	r := New(MustSchema(Column{"s", value.KindString}, Column{"t", value.KindString}))
	for i := 0; i < 200; i++ {
		r.MustAppend(value.NewString(string(rune('a'+i%26))+string(rune('A'+i%7))), value.NewString(string(rune(i))))
	}
	first, err := r.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, _ := r.GobEncode()
		if !bytes.Equal(first, again) {
			t.Fatal("encoding the same relation twice gave different bytes")
		}
	}
}

// TestRelationWireRowsIsolated: decoded rows share one slab but appending
// to a row must not overwrite its neighbour.
func TestRelationWireRowsIsolated(t *testing.T) {
	r := New(MustSchema(Column{"a", value.KindInt}, Column{"b", value.KindInt}))
	r.MustAppend(value.NewInt(1), value.NewInt(2))
	r.MustAppend(value.NewInt(3), value.NewInt(4))
	got, _ := gobRoundTrip(t, r)
	_ = append(got.Rows[0], value.NewInt(99))
	if got.Rows[1][0] != value.NewInt(3) {
		t.Fatalf("append to row 0 clobbered row 1: %v", got.Rows[1])
	}
}

// TestRelationWireSmaller: the columnar payload is smaller than the
// row-wise gob encoding of the same relation.
func TestRelationWireSmaller(t *testing.T) {
	r := wireFixtures()["typed columns"]
	_, col := gobRoundTrip(t, r)
	_, row := gobRoundTrip(t, &rowGob{Schema: r.Schema, Rows: r.Rows})
	if col >= row {
		t.Fatalf("columnar payload %d bytes, row-wise gob %d", col, row)
	}
}

// TestRelationWireTruncated: every proper prefix of a valid payload is
// rejected with an error.
func TestRelationWireTruncated(t *testing.T) {
	for name, r := range wireFixtures() {
		b, _ := r.GobEncode()
		for n := 0; n < len(b); n++ {
			var out Relation
			if err := out.GobDecode(b[:n]); err == nil {
				t.Fatalf("%s: %d-byte prefix of %d decoded without error", name, n, len(b))
			}
		}
	}
}

// TestRelationWireHostile: counts that the payload cannot back fail
// before anything is allocated for them.
func TestRelationWireHostile(t *testing.T) {
	uv := func(u uint64) []byte { return binary.AppendUvarint(nil, u) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := map[string][]byte{
		"bad version":       {2, 0, 0},
		"huge column count": cat([]byte{1, 1}, uv(1<<40)),
		"huge name":         cat([]byte{1, 1, 1}, uv(1<<40)),
		"huge row count":    cat([]byte{1, 0}, uv(1<<40), []byte{0, 1, 1}),
		"huge width":        cat([]byte{1, 0}, uv(64), []byte{0}, uv(1<<40), []byte{1}),
		"wide rows":         cat([]byte{1, 0}, uv(512), []byte{0}, uv(64), bytes.Repeat([]byte{1}, 100)),
		"huge dictionary":   cat([]byte{1, 0, 1, 0, 1, 4}, uv(1<<40)),
		"huge dict entry":   cat([]byte{1, 0, 1, 0, 1, 4, 1}, uv(1<<40)),
		// Entry lengths 5 and 2^64-5 sum to 0 modulo 2^64.
		"wrapping dict":     cat([]byte{1, 0, 1, 0, 1, 4, 2}, uv(5), uv(1<<64-5), []byte("xxxxx"), uv(0)),
		"code out of range": {1, 0, 1, 0, 1, 4, 1, 1, 'x', 1},
		"huge ragged row":   cat([]byte{1, 0, 1, 1}, uv(1<<40)),
		"ragged overflow":   cat([]byte{1, 0, 3, 1, 2, 2, 2}, bytes.Repeat([]byte{1, 0}, 4)),
		"bad tag":           {1, 0, 1, 0, 1, 0x33, 0},
		"null column data":  {1, 0, 1, 0, 1, byte(value.KindNull), 0},
		"bad mask":          {1, 0, 1, 0, 1, tagExact, 2, 0xf0},
		"bad shape":         {1, 0, 1, 9},
		"trailing bytes":    {1, 0, 0, 0},
		"truncated float":   {1, 0, 1, 0, 1, byte(value.KindFloat), 1, 2},
	}
	for name, b := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var out Relation
		err := out.GobDecode(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without error: %#v", name, out)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: %d-byte payload allocated %d bytes", name, len(b), grew)
		}
	}
}

// relationFromBytes builds a relation whose shape and values are driven
// by fuzz input: kinds mix within columns, fields stray, floats take raw
// bit patterns.
func relationFromBytes(data []byte) *Relation {
	if len(data) < 2 {
		return &Relation{}
	}
	width := int(data[0] % 5)
	nrows := int(data[1] % 40)
	data = data[2:]
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	cols := make([]Column, width)
	for j := range cols {
		cols[j] = Column{Name: string(rune('a' + j)), Kind: value.Kind(next() % 6)}
	}
	r := &Relation{Schema: &Schema{Cols: cols}}
	for i := 0; i < nrows; i++ {
		w := width
		if c := next(); c >= 250 {
			w = int(c - 250) // occasional ragged row
		}
		var row Row
		if w > 0 {
			row = make(Row, w)
		}
		for j := range row {
			c := next()
			v := value.V{K: value.Kind(c % 6)}
			switch v.K {
			case value.KindInt, value.KindBool:
				v.I = int64(next()) - 128
			case value.KindFloat:
				v.F = math.Float64frombits(uint64(next())<<56 | uint64(next()))
			case value.KindString:
				v.S = string(bytes.Repeat([]byte{next()}, int(next()%4)))
			}
			if c >= 240 { // stray field
				v.S += "~"
			}
			row[j] = v
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// FuzzRelationWire: arbitrary bytes never panic the decoder, a payload
// that decodes re-encodes to one that decodes to the same values, and
// relations built from the input round-trip bit-exactly and match the
// row-wise gob decode.
func FuzzRelationWire(f *testing.F) {
	for _, r := range wireFixtures() {
		b, _ := r.GobEncode()
		f.Add(b)
	}
	f.Add([]byte{3, 7, 1, 2, 3, 4, 5, 250, 251, 252, 9, 240, 241, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Relation
		if err := dec.GobDecode(data); err == nil {
			vals := 0
			for _, row := range dec.Rows {
				vals += len(row)
			}
			if vals > 8*len(data) {
				t.Fatalf("%d-byte payload decoded to %d values", len(data), vals)
			}
			again, _ := dec.GobEncode()
			var dec2 Relation
			if err := dec2.GobDecode(again); err != nil || !sameBits(&dec, &dec2) {
				t.Fatalf("re-encoded payload does not round-trip: %v", err)
			}
		}

		r := relationFromBytes(data)
		b1, _ := r.GobEncode()
		b2, _ := r.GobEncode()
		if !bytes.Equal(b1, b2) {
			t.Fatal("encoding is not deterministic")
		}
		got, _ := gobRoundTrip(t, r)
		if !sameBits(got, r) {
			t.Fatalf("values changed:\n got %#v\nwant %#v", got, r)
		}
		if !hasNaN(r) {
			if old := viaRowGob(t, r); !reflect.DeepEqual(got, old) {
				t.Fatalf("differs from the row-wise gob decode:\n got %#v\nwant %#v", got, old)
			}
		}
	})
}

// BenchmarkRelationWire compares encode+decode of a 5000-group result
// relation through gob with the columnar payload and the row-wise form.
func BenchmarkRelationWire(b *testing.B) {
	r := New(MustSchema(Column{"PartKey", value.KindInt}, Column{"cnt", value.KindInt},
		Column{"sum", value.KindFloat}, Column{"mode", value.KindString}))
	for i := 0; i < 5000; i++ {
		r.MustAppend(value.NewInt(int64(i)), value.NewInt(int64(i%13)),
			value.NewFloat(float64(i)*1.5), value.NewString([]string{"AIR", "RAIL", "SHIP"}[i%3]))
	}
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gobRoundTrip(b, r)
		}
	})
	b.Run("rowgob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gobRoundTrip(b, &rowGob{Schema: r.Schema, Rows: r.Rows})
		}
	})
}
