package archive

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/tsdb"
)

// The body encoder: the one renderer of /api/v1/query and /api/v1/latest
// bodies. It appends JSON to a pooled buffer and writes that out as it
// fills — no reflection, no allocation per point — and its output is,
// byte for byte, what encoding/json writes for the same values. What the
// append path does not render itself (a string needing an escape, a
// timestamp outside UTC or years 0–9999, a non-finite value) it hands to
// encoding/json, so those bytes and those errors are its own. The
// differential table, fuzz target and golden files of encode_test.go
// hold it to that.

// streamFlushBytes is how much body the encoder lets accumulate before it
// writes it out and, for a streamed response, flushes. Each flush is a
// gzip sync-flush plus a chunked socket write, which a flush per series
// would charge a 160-series, 480-point response 160 times; by bytes, a
// small response is flushed once, at its end, by net/http, while a large
// one still reaches the client as it is produced.
const streamFlushBytes = 32 << 10

// bodyBufPool holds the encoders' buffers: streamFlushBytes plus room for
// the element that crosses the mark.
var bodyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, streamFlushBytes+1<<10)
	return &b
}}

// bodySink is where an encoder's buffer drains to; flush is nil when
// nobody downstream is waiting on a partial body.
type bodySink struct {
	w     io.Writer
	flush func()
}

// drain writes b out once it holds streamFlushBytes, then flushes, and
// returns the buffer to append to next.
func (s bodySink) drain(b []byte) ([]byte, error) {
	if len(b) < streamFlushBytes {
		return b, nil
	}
	_, err := s.w.Write(b)
	if err == nil && s.flush != nil {
		s.flush()
	}
	return b[:0], err
}

// encodeBody runs render over a pooled buffer and writes out what it
// leaves there. After a failed render it writes nothing: what was already
// drained is a torn body, which the caller must not complete.
func encodeBody(w io.Writer, flush func(), render func(b []byte, s bodySink) ([]byte, error)) error {
	bp := bodyBufPool.Get().(*[]byte)
	b, err := render((*bp)[:0], bodySink{w, flush})
	if err == nil {
		_, err = w.Write(b)
	}
	*bp = b[:0]
	bodyBufPool.Put(bp)
	return err
}

// writeSeriesJSON renders series as a JSON array into w: `[`, the
// elements as json.Encoder writes them (each followed by a newline —
// interelement whitespace, still one valid JSON array) separated by `,`,
// then `]` and a newline. It writes every streamFlushBytes and, given a
// flush, calls it after each such write. It stops at the first error.
func writeSeriesJSON(w io.Writer, series []SeriesResult, flush func()) error {
	return encodeBody(w, flush, func(b []byte, s bodySink) (_ []byte, err error) {
		if len(series) == 0 {
			return append(b, "[]\n"...), nil
		}
		b = append(b, '[')
		for i := range series {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendKey(append(b, `{"key":`...), series[i].Key)
			pts := series[i].Points
			if pts == nil {
				b = append(b, `,"points":null`...)
			} else {
				b = append(b, `,"points":[`...)
			}
			for j := range pts {
				if j > 0 {
					b = append(b, ',')
				}
				if b, err = s.point(b, `{"At":`, pts[j].At, `,"Value":`, pts[j].Value); err != nil {
					return b, err
				}
			}
			if pts != nil {
				b = append(b, ']')
			}
			if b, err = s.drain(append(b, "}\n"...)); err != nil {
				return b, err
			}
		}
		return append(b, "]\n"...), nil
	})
}

// writeLatestJSON renders entries as json.Encoder.Encode writes the
// slice — `null` for nil, no whitespace between elements, one trailing
// newline — writing and flushing as writeSeriesJSON does.
func writeLatestJSON(w io.Writer, entries []LatestEntry, flush func()) error {
	return encodeBody(w, flush, func(b []byte, s bodySink) (_ []byte, err error) {
		if entries == nil {
			return append(b, "null\n"...), nil
		}
		b = append(b, '[')
		for i := range entries {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendKey(append(b, `{"key":`...), entries[i].Key)
			if b, err = s.point(b, `,"at":`, entries[i].At, `,"value":`, entries[i].Value); err != nil {
				return b, err
			}
		}
		return append(b, "]\n"...), nil
	})
}

// point appends the two members that end an object — atName, t,
// valueName, v, `}` — and drains.
func (s bodySink) point(b []byte, atName string, t time.Time, valueName string, v float64) ([]byte, error) {
	b, err := appendTime(append(b, atName...), t)
	if err == nil {
		b, err = appendFloat(append(b, valueName...), v)
	}
	if err != nil {
		return b, err
	}
	return s.drain(append(b, '}'))
}

func appendKey(b []byte, k tsdb.SeriesKey) []byte {
	b = appendString(append(b, `{"Dataset":`...), k.Dataset)
	b = appendString(append(b, `,"Type":`...), k.Type)
	b = appendString(append(b, `,"Region":`...), k.Region)
	b = appendString(append(b, `,"AZ":`...), k.AZ)
	return append(b, '}')
}

// appendString quotes s. Printable ASCII without `"`, `\` or the `<>&`
// that json.Encoder HTML-escapes is copied as it is; key fields may hold
// any bytes, and everything else is encoding/json's to escape.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			j, _ := json.Marshal(s) // a string always marshals
			return append(b, j...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// Unix seconds of 0000-01-01T00:00:00Z and 10000-01-01T00:00:00Z: the
// years between are the ones RFC 3339, and so Time.MarshalJSON, can write.
const minRFC3339Unix, endRFC3339Unix = -62167219200, 253402300800

// appendTime quotes t as Time.MarshalJSON does. Stored points are UTC;
// any other location, and the years MarshalJSON refuses, take its path.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	if u := t.Unix(); t.Location() != time.UTC || u < minRFC3339Unix || u >= endRFC3339Unix {
		j, err := json.Marshal(t)
		return append(b, j...), err
	}
	return append(t.AppendFormat(append(b, '"'), time.RFC3339Nano), '"'), nil
}

// appendFloat writes f by encoding/json's rule for a float64: the
// shortest digits that round-trip, as a plain decimal unless the exponent
// is below -6 or at least 21, and then with a one-digit exponent written
// as one digit. NaN and the infinities are encoding/json's error. The
// archive's scores, bands and percentages are whole numbers, and below
// 2^53 a whole number's shortest digits are its integer digits, which
// AppendInt writes at a tenth of the cost; -0 is not one of them.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return b, err
	}
	if i := int64(f); float64(i) == f && -1<<53 < i && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, i, 10), nil
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 → e-9
		b = b[:n-1]
	}
	return b, nil
}
