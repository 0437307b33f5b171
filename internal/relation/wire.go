package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/value"
)

// Wire form of a relation. gob calls GobEncode/GobDecode wherever a
// *Relation crosses the wire (request base structures, shipped detail
// data, sub-aggregate results, site snapshots), so the payload is
// column-at-a-time binary instead of one reflected value.V struct per
// scalar. The layout (PROTOCOL.md, "Relation payload"):
//
//	payload := version schema nrows:uvarint [shape]      shape only if nrows > 0
//	schema  := 0x00                                      nil schema
//	         | 0x01 ncols:uvarint {len:uvarint name kind:byte}*
//	shape   := 0x00 width:uvarint block*width            every row has width > 0 values
//	         | 0x01 len:uvarint*nrows exact*             ragged or zero-width rows
//	block   := tag [bitmap] data
//
// A block's tag is a value.Kind, or tagExact; flagNulls marks a null
// bitmap (ceil(nrows/8) bytes, LSB first, bit set = non-NULL), and data
// then covers the non-NULL rows only. Typed data: bools and ints are
// zig-zag varints of V.I, floats the 8 little-endian bytes of their IEEE
// bits, strings a dictionary (n:uvarint, n lengths, the concatenated
// bytes; first-seen order) followed by one uvarint code per value. An
// exact block, used for mixed-kind columns and values with stray fields
// set, stores every V field of every row. Every value round-trips
// bit-for-bit, and the encoding of a relation is a pure function of its
// contents.
const (
	wireVersion = 1

	shapeUniform = 0
	shapeRagged  = 1

	tagExact  = 0x7f
	flagNulls = 0x80

	// Exact-value field mask bits.
	exactI = 1 << 0
	exactF = 1 << 1
	exactS = 1 << 2
)

// errWire is wrapped by every decode failure.
var errWire = errors.New("relation: malformed wire payload")

// GobEncode implements gob.GobEncoder with the columnar wire form.
func (r *Relation) GobEncode() ([]byte, error) {
	var enc wireEncoder
	return enc.encode(r), nil
}

// GobDecode implements gob.GobDecoder. Rows are capacity-limited views of
// one value slab, so appending to a decoded row never clobbers the next.
func (r *Relation) GobDecode(b []byte) error {
	d := wireDecoder{b: b}
	return d.decode(r)
}

type wireEncoder struct {
	buf   []byte
	dict  map[string]uint64
	codes []byte
}

func (e *wireEncoder) encode(r *Relation) []byte {
	width, uniform := rowWidth(r.Rows)
	e.buf = make([]byte, 0, 16+len(r.Rows)*width*3)
	e.buf = append(e.buf, wireVersion)
	if r.Schema == nil {
		e.buf = append(e.buf, 0)
	} else {
		e.buf = append(e.buf, 1)
		e.buf = binary.AppendUvarint(e.buf, uint64(len(r.Schema.Cols)))
		for _, c := range r.Schema.Cols {
			e.putString(c.Name)
			e.buf = append(e.buf, byte(c.Kind))
		}
	}
	e.buf = binary.AppendUvarint(e.buf, uint64(len(r.Rows)))
	if len(r.Rows) == 0 {
		return e.buf
	}
	if !uniform {
		e.buf = append(e.buf, shapeRagged)
		for _, row := range r.Rows {
			e.buf = binary.AppendUvarint(e.buf, uint64(len(row)))
		}
		for _, row := range r.Rows {
			for _, v := range row {
				e.putExact(v)
			}
		}
		return e.buf
	}
	e.buf = append(e.buf, shapeUniform)
	e.buf = binary.AppendUvarint(e.buf, uint64(width))
	for j := 0; j < width; j++ {
		e.putColumn(r.Rows, j)
	}
	return e.buf
}

// rowWidth returns the common row length and whether every row has it
// and it is non-zero (zero-width rows travel in the ragged shape, whose
// per-row lengths keep the row count bounded by the payload size).
func rowWidth(rows []Row) (int, bool) {
	if len(rows) == 0 {
		return 0, false
	}
	w := len(rows[0])
	for _, row := range rows[1:] {
		if len(row) != w {
			return w, false
		}
	}
	return w, w > 0
}

// columnKind classifies column j: the single kind of its non-NULL values
// (KindNull when all are NULL) and whether any value is NULL, or
// ok=false when the column needs the exact form.
func columnKind(rows []Row, j int) (k value.Kind, nulls, ok bool) {
	for _, row := range rows {
		v := row[j]
		if v.K == value.KindNull {
			if v.I != 0 || math.Float64bits(v.F) != 0 || v.S != "" {
				return 0, false, false
			}
			nulls = true
			continue
		}
		if k == value.KindNull {
			k = v.K
		} else if v.K != k {
			return 0, false, false
		}
		if !canonical(v) {
			return 0, false, false
		}
	}
	return k, nulls, true
}

// canonical reports whether v is a non-NULL value of a known kind with
// every field other than its payload at zero.
func canonical(v value.V) bool {
	switch v.K {
	case value.KindBool, value.KindInt:
		return math.Float64bits(v.F) == 0 && v.S == ""
	case value.KindFloat:
		return v.I == 0 && v.S == ""
	case value.KindString:
		return v.I == 0 && math.Float64bits(v.F) == 0
	default:
		return false
	}
}

func (e *wireEncoder) putColumn(rows []Row, j int) {
	k, nulls, ok := columnKind(rows, j)
	if !ok {
		e.buf = append(e.buf, tagExact)
		for _, row := range rows {
			e.putExact(row[j])
		}
		return
	}
	if !nulls {
		e.buf = append(e.buf, byte(k))
	} else {
		e.buf = append(e.buf, byte(k)|flagNulls)
		start := len(e.buf)
		e.buf = append(e.buf, make([]byte, (len(rows)+7)/8)...)
		for i, row := range rows {
			if row[j].K != value.KindNull {
				e.buf[start+i/8] |= 1 << (i % 8)
			}
		}
	}
	switch k {
	case value.KindBool, value.KindInt:
		for _, row := range rows {
			if v := row[j]; v.K != value.KindNull {
				e.buf = binary.AppendVarint(e.buf, v.I)
			}
		}
	case value.KindFloat:
		for _, row := range rows {
			if v := row[j]; v.K != value.KindNull {
				e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v.F))
			}
		}
	case value.KindString:
		e.putStrings(rows, j)
	}
}

// putStrings writes a string column's dictionary and codes. Codes are
// assigned in first-seen row order, so the output never depends on map
// iteration order.
func (e *wireEncoder) putStrings(rows []Row, j int) {
	if e.dict == nil {
		e.dict = make(map[string]uint64)
	} else {
		clear(e.dict)
	}
	var entries []string
	e.codes = e.codes[:0]
	for _, row := range rows {
		v := row[j]
		if v.K == value.KindNull {
			continue
		}
		c, seen := e.dict[v.S]
		if !seen {
			c = uint64(len(entries))
			e.dict[v.S] = c
			entries = append(entries, v.S)
		}
		e.codes = binary.AppendUvarint(e.codes, c)
	}
	e.buf = binary.AppendUvarint(e.buf, uint64(len(entries)))
	for _, s := range entries {
		e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	}
	for _, s := range entries {
		e.buf = append(e.buf, s...)
	}
	e.buf = append(e.buf, e.codes...)
}

func (e *wireEncoder) putExact(v value.V) {
	var mask byte
	if v.I != 0 {
		mask |= exactI
	}
	if math.Float64bits(v.F) != 0 {
		mask |= exactF
	}
	if v.S != "" {
		mask |= exactS
	}
	e.buf = append(e.buf, byte(v.K), mask)
	if mask&exactI != 0 {
		e.buf = binary.AppendVarint(e.buf, v.I)
	}
	if mask&exactF != 0 {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v.F))
	}
	if mask&exactS != 0 {
		e.putString(v.S)
	}
}

func (e *wireEncoder) putString(s string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// wireDecoder reads a payload front to back. Every count it reads is
// checked against the bytes that remain before anything is allocated
// for it, so a truncated or hostile payload fails with an error instead
// of a panic or an allocation its length cannot justify.
type wireDecoder struct {
	b   []byte
	off int
}

func (d *wireDecoder) fail(format string, args ...any) error {
	return fmt.Errorf("%w at byte %d: %s", errWire, d.off, fmt.Sprintf(format, args...))
}

func (d *wireDecoder) left() int { return len(d.b) - d.off }

func (d *wireDecoder) u8() (byte, error) {
	if d.off >= len(d.b) {
		return 0, d.fail("truncated")
	}
	c := d.b[d.off]
	d.off++
	return c, nil
}

func (d *wireDecoder) uvarint() (uint64, error) {
	u, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, d.fail("bad uvarint")
	}
	d.off += n
	return u, nil
}

func (d *wireDecoder) varint() (int64, error) {
	i, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, d.fail("bad varint")
	}
	d.off += n
	return i, nil
}

// count reads a uvarint count of items that each occupy at least per
// bytes of the remaining payload.
func (d *wireDecoder) count(what string, per int) (int, error) {
	u, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if u > uint64(d.left()/per) {
		return 0, d.fail("%s count %d exceeds the %d bytes left", what, u, d.left())
	}
	return int(u), nil
}

func (d *wireDecoder) float() (float64, error) {
	if d.left() < 8 {
		return 0, d.fail("truncated float")
	}
	bits := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return math.Float64frombits(bits), nil
}

func (d *wireDecoder) take(n int) ([]byte, error) {
	if n > d.left() {
		return nil, d.fail("truncated: need %d bytes, have %d", n, d.left())
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p, nil
}

func (d *wireDecoder) str() (string, error) {
	n, err := d.count("string byte", 1)
	if err != nil {
		return "", err
	}
	p, err := d.take(n)
	return string(p), err
}

func (d *wireDecoder) decode(r *Relation) error {
	*r = Relation{}
	ver, err := d.u8()
	if err != nil {
		return err
	}
	if ver != wireVersion {
		return d.fail("payload version %d, want %d", ver, wireVersion)
	}
	if r.Schema, err = d.schema(); err != nil {
		return err
	}
	// A row costs at least one byte in either shape (a length, or its
	// share of width columns that each take >= ceil(nrows/8) bytes), so
	// nrows is bounded by eight bytes' worth of bits per payload byte.
	nrows, err := d.uvarint()
	if err != nil {
		return err
	}
	if nrows > 8*uint64(d.left()) {
		return d.fail("row count %d exceeds what %d bytes can hold", nrows, d.left())
	}
	if nrows > 0 {
		shape, err := d.u8()
		if err != nil {
			return err
		}
		switch shape {
		case shapeUniform:
			r.Rows, err = d.uniform(int(nrows))
		case shapeRagged:
			r.Rows, err = d.ragged(int(nrows))
		default:
			err = d.fail("unknown row shape %d", shape)
		}
		if err != nil {
			return err
		}
	}
	if d.left() != 0 {
		return d.fail("%d trailing bytes", d.left())
	}
	return nil
}

func (d *wireDecoder) schema() (*Schema, error) {
	present, err := d.u8()
	if err != nil {
		return nil, err
	}
	switch present {
	case 0:
		return nil, nil
	case 1:
	default:
		return nil, d.fail("bad schema marker %d", present)
	}
	n, err := d.count("column", 2) // name length + kind
	if err != nil {
		return nil, err
	}
	s := &Schema{}
	if n > 0 {
		s.Cols = make([]Column, n)
	}
	for i := range s.Cols {
		if s.Cols[i].Name, err = d.str(); err != nil {
			return nil, err
		}
		k, err := d.u8()
		if err != nil {
			return nil, err
		}
		s.Cols[i].Kind = value.Kind(k)
	}
	return s, nil
}

// uniform decodes width column blocks into one row-major slab.
func (d *wireDecoder) uniform(nrows int) ([]Row, error) {
	width, err := d.count("column block", 1)
	if err != nil {
		return nil, err
	}
	// Every block takes at least ceil(nrows/8) bytes (a bitmap, or at
	// least one byte per value), which bounds the slab by the payload.
	if width == 0 || uint64(width)*uint64((nrows+7)/8) > uint64(d.left()) {
		return nil, d.fail("%d rows of width %d do not fit in %d bytes", nrows, width, d.left())
	}
	slab := make([]value.V, nrows*width)
	for j := 0; j < width; j++ {
		if err := d.column(slab, nrows, width, j); err != nil {
			return nil, err
		}
	}
	rows := make([]Row, nrows)
	for i := range rows {
		rows[i] = slab[i*width : (i+1)*width : (i+1)*width]
	}
	return rows, nil
}

// column decodes block j into slab[i*width+j] for every row i.
func (d *wireDecoder) column(slab []value.V, nrows, width, j int) error {
	tag, err := d.u8()
	if err != nil {
		return err
	}
	if tag == tagExact {
		for i := 0; i < nrows; i++ {
			if slab[i*width+j], err = d.exact(); err != nil {
				return err
			}
		}
		return nil
	}
	k := value.Kind(tag &^ flagNulls)
	if k > value.KindString {
		return d.fail("unknown column tag %#x", tag)
	}
	var bitmap []byte
	if tag&flagNulls != 0 {
		if bitmap, err = d.take((nrows + 7) / 8); err != nil {
			return err
		}
	}
	var dict []string
	if k == value.KindString {
		if dict, err = d.dictionary(); err != nil {
			return err
		}
	}
	for i := 0; i < nrows; i++ {
		if bitmap != nil && bitmap[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		v := &slab[i*width+j]
		v.K = k
		switch k {
		case value.KindNull:
			err = d.fail("NULL column with a non-NULL row %d", i)
		case value.KindBool, value.KindInt:
			v.I, err = d.varint()
		case value.KindFloat:
			v.F, err = d.float()
		case value.KindString:
			var c uint64
			if c, err = d.uvarint(); err == nil && c >= uint64(len(dict)) {
				err = d.fail("string code %d outside a %d-entry dictionary", c, len(dict))
			}
			if err == nil {
				v.S = dict[c]
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// dictionary reads a string column's dictionary. All entries share one
// backing string, so a column costs two allocations however many
// distinct values it has.
func (d *wireDecoder) dictionary() ([]string, error) {
	n, err := d.count("dictionary entry", 1)
	if err != nil {
		return nil, err
	}
	lens := d.off
	total := uint64(0)
	for i := 0; i < n; i++ {
		l, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		// Compare against what is left rather than summing first, so a
		// hostile length cannot wrap total around.
		if l > uint64(d.left())-total {
			return nil, d.fail("dictionary entry %d needs %d bytes, %d left", i, l, uint64(d.left())-total)
		}
		total += l
	}
	p, err := d.take(int(total))
	if err != nil {
		return nil, err
	}
	all := string(p)
	dict := make([]string, n)
	at := 0
	for i := range dict {
		l, m := binary.Uvarint(d.b[lens:])
		lens += m
		dict[i] = all[at : at+int(l)]
		at += int(l)
	}
	return dict, nil
}

// ragged decodes rows of individual lengths, stored as exact values.
func (d *wireDecoder) ragged(nrows int) ([]Row, error) {
	if nrows > d.left() {
		return nil, d.fail("%d row lengths do not fit in %d bytes", nrows, d.left())
	}
	lens := make([]int, nrows)
	total := 0
	for i := range lens {
		l, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		// An exact value takes at least two bytes.
		if l > uint64(d.left()) || total+int(l) > d.left()/2 {
			return nil, d.fail("row lengths exceed what %d bytes can hold", d.left())
		}
		lens[i] = int(l)
		total += int(l)
	}
	slab := make([]value.V, total)
	for i := range slab {
		var err error
		if slab[i], err = d.exact(); err != nil {
			return nil, err
		}
	}
	rows := make([]Row, nrows)
	at := 0
	for i, l := range lens {
		if l > 0 {
			rows[i] = slab[at : at+l : at+l]
		}
		at += l
	}
	return rows, nil
}

func (d *wireDecoder) exact() (value.V, error) {
	var v value.V
	k, err := d.u8()
	if err != nil {
		return v, err
	}
	mask, err := d.u8()
	if err != nil {
		return v, err
	}
	if mask&^(exactI|exactF|exactS) != 0 {
		return v, d.fail("bad value mask %#x", mask)
	}
	v.K = value.Kind(k)
	if mask&exactI != 0 {
		if v.I, err = d.varint(); err != nil {
			return v, err
		}
	}
	if mask&exactF != 0 {
		if v.F, err = d.float(); err != nil {
			return v, err
		}
	}
	if mask&exactS != 0 {
		if v.S, err = d.str(); err != nil {
			return v, err
		}
	}
	return v, nil
}
