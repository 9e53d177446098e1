package relational

import (
	"infosleuth/internal/constraint"
	"infosleuth/internal/jsonwire"
)

// Rows travel in KQML answers as JSON arrays of values; a nil row is null.

// AppendRowsJSON appends rows as a JSON array of rows; nil is null.
func AppendRowsJSON(dst []byte, rows []Row) ([]byte, error) {
	if rows == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		if row == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = v.AppendJSON(dst); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, ']'), nil
}

// ReadRowsJSON reads an array of rows in the form AppendRowsJSON writes.
// Rows share a few large blocks of values instead of one allocation each;
// every row is capped, so appending to one copies it.
func ReadRowsJSON(rd *jsonwire.Reader) []Row {
	if rd.Null() {
		return nil
	}
	rd.Expect("[")
	rows := []Row{}
	if rd.Lit("]") {
		return rows
	}
	var cells []constraint.Value
	for {
		before := rd.Len()
		var buf [16]constraint.Value
		if vals := readValues(rd, buf[:0]); vals == nil {
			rows = append(rows, nil)
		} else {
			if cells == nil || cap(cells)-len(cells) < len(vals) {
				// Size the next block for the rest of the answer, taking
				// the unread rows to be as long as this one.
				left := 1 + rd.Len()/max(1, before-rd.Len())
				cells = make([]constraint.Value, 0, left*len(vals))
				if cap(rows) == 0 {
					rows = make([]Row, 0, left)
				}
			}
			start := len(cells)
			cells = append(cells, vals...)
			rows = append(rows, Row(cells[start:len(cells):len(cells)]))
		}
		if !rd.Lit(",") {
			break
		}
	}
	rd.Expect("]")
	return rows
}

// readValues reads one row's values into vals, returning nil for null.
func readValues(rd *jsonwire.Reader, vals []constraint.Value) []constraint.Value {
	if rd.Null() {
		return nil
	}
	rd.Expect("[")
	if rd.Lit("]") {
		return vals
	}
	for {
		var v constraint.Value
		v.ReadJSON(rd)
		vals = append(vals, v)
		if !rd.Lit(",") {
			break
		}
	}
	rd.Expect("]")
	return vals
}
