package archive

// The body encoder's safety net: its output is held, byte for byte and
// error for error, to the encoding/json code it replaced (kept here as
// the reference), over a table of awkward values and a fuzz target
// seeded from it; and the bodies a small sealed-plus-hot archive serves
// are pinned in testdata/, whichever encoding/json the toolchain ships.

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/simclock"
	"repro/internal/tsdb"
)

// refSeriesJSON is the series encoder as it was before the append-based
// one: reflection-driven json.Encoder, one Encode per element.
func refSeriesJSON(w io.Writer, series []SeriesResult) error {
	if len(series) == 0 {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	if _, err := io.WriteString(w, "["); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i := range series {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if err := enc.Encode(series[i]); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// refLatestJSON is the /api/v1/latest body as it was: one Encode.
func refLatestJSON(w io.Writer, entries []LatestEntry) error {
	return json.NewEncoder(w).Encode(entries)
}

// checkAgainstReference renders series and latest through both encoders
// and demands equal bytes and equal error-ness; a failed render must not
// have written anything that parses as a complete body.
func checkAgainstReference(t *testing.T, series []SeriesResult, latest []LatestEntry) {
	t.Helper()
	check := func(what string, enc, ref func(io.Writer) error) {
		t.Helper()
		var got, want bytes.Buffer
		gotErr, wantErr := enc(&got), ref(&want)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: encoder error %v, encoding/json error %v", what, gotErr, wantErr)
		}
		if gotErr != nil {
			if json.Valid(got.Bytes()) {
				t.Fatalf("%s: the failed encode (%v) left a complete body: %.200q", what, gotErr, got.Bytes())
			}
			return
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			i := 0
			for i < got.Len() && i < want.Len() && got.Bytes()[i] == want.Bytes()[i] {
				i++
			}
			lo := max(i-40, 0)
			t.Fatalf("%s: bodies differ at byte %d (%d vs %d bytes):\n got …%.120q\nwant …%.120q",
				what, i, got.Len(), want.Len(), got.Bytes()[lo:], want.Bytes()[lo:])
		}
	}
	check("series", func(w io.Writer) error { return writeSeriesJSON(w, series, nil) },
		func(w io.Writer) error { return refSeriesJSON(w, series) })
	check("latest", func(w io.Writer) error { return writeLatestJSON(w, latest, nil) },
		func(w io.Writer) error { return refLatestJSON(w, latest) })
}

// latestOf is the latest body a series slice stands for: each series'
// last point (the zero point for a series without one).
func latestOf(series []SeriesResult) []LatestEntry {
	if series == nil {
		return nil
	}
	out := make([]LatestEntry, len(series))
	for i, sr := range series {
		out[i].Key = sr.Key
		if n := len(sr.Points); n > 0 {
			out[i].At, out[i].Value = sr.Points[n-1].At, sr.Points[n-1].Value
		}
	}
	return out
}

var encT0 = time.Date(2022, 3, 4, 5, 6, 7, 0, time.UTC)

// encoderTable is the differential table, and the fuzz corpus' seed.
func encoderTable() map[string][]SeriesResult {
	plain := tsdb.SeriesKey{Dataset: "sps", Type: "m5.xlarge", Region: "us-east-1", AZ: "use1-az1"}
	one := func(k tsdb.SeriesKey, pts ...tsdb.Point) []SeriesResult {
		return []SeriesResult{{Key: k, Points: pts}}
	}
	at := func(t time.Time) []SeriesResult { return one(plain, tsdb.Point{At: t, Value: 1}) }
	val := func(vs ...float64) []SeriesResult {
		pts := make([]tsdb.Point, len(vs))
		for i, v := range vs {
			pts[i] = tsdb.Point{At: encT0.Add(time.Duration(i) * 10 * time.Minute), Value: v}
		}
		return one(plain, pts...)
	}
	// Long enough to cross several buffer drains, within a series and
	// across series, with a different width every few points.
	long := make([]SeriesResult, 40)
	for i := range long {
		long[i].Key = plain
		long[i].Key.AZ = strings.Repeat("z", i)
		long[i].Points = make([]tsdb.Point, 50*i)
		for j := range long[i].Points {
			long[i].Points[j] = tsdb.Point{At: encT0.Add(time.Duration(j) * 10 * time.Minute), Value: float64(j%11) / float64(1+i%3)}
		}
	}
	return map[string][]SeriesResult{
		"nil series":        nil,
		"empty series":      {},
		"nil points":        {{Key: plain}},
		"empty points":      {{Key: plain, Points: []tsdb.Point{}}},
		"nil then points":   {{Key: plain}, {Key: plain, Points: []tsdb.Point{{At: encT0, Value: 2}}}, {Key: plain, Points: []tsdb.Point{}}},
		"empty key fields":  one(tsdb.SeriesKey{}, tsdb.Point{At: encT0, Value: 3}),
		"quote backslash":   one(tsdb.SeriesKey{Dataset: `a"b`, Type: `c\d`, Region: `\`, AZ: `"`}, tsdb.Point{At: encT0}),
		"html":              one(tsdb.SeriesKey{Dataset: "<script>", Type: "a&b", Region: ">", AZ: "</"}, tsdb.Point{At: encT0}),
		"control bytes":     one(tsdb.SeriesKey{Dataset: "a\x00b", Type: "\n\r\t", Region: "\b\f", AZ: "\x1f\x7f"}, tsdb.Point{At: encT0}),
		"invalid utf-8":     one(tsdb.SeriesKey{Dataset: "a\xffb", Type: "\xc3", Region: "\xe2\x80", AZ: "\xed\xa0\x80"}, tsdb.Point{At: encT0}),
		"line separators":   one(tsdb.SeriesKey{Dataset: "a\u2028b", Type: "\u2029", Region: "é", AZ: "日本"}, tsdb.Point{At: encT0}),
		"nanoseconds":       at(encT0.Add(123456789)),
		"trailing zeros":    at(encT0.Add(120 * time.Millisecond)),
		"zero time":         at(time.Time{}),
		"year 0":            at(time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC)),
		"year -1":           at(time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Add(-time.Nanosecond)),
		"year 9999":         at(time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)),
		"year 10000":        at(time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)),
		"zone +09:00":       at(encT0.In(time.FixedZone("KST", 9*3600))),
		"zone -03:30":       at(encT0.In(time.FixedZone("", -(3*3600 + 1800)))),
		"zone of offset 0":  at(encT0.In(time.FixedZone("GMT", 0))),
		"zone with seconds": at(encT0.In(time.FixedZone("", 3600+17))),
		"zone +24:00":       at(encT0.In(time.FixedZone("", 24*3600))),
		"zone -30:00":       at(encT0.In(time.FixedZone("", -30*3600))),
		"zone pushes year":  at(time.Date(9999, 12, 31, 23, 0, 0, 0, time.UTC).In(time.FixedZone("", 2*3600))),
		"zeros":             val(0, math.Copysign(0, -1)),
		"integers":          val(1, -1, 10, 1e15, 1<<53-1, 1-1<<53, 1<<53, -1<<53, 1<<53+2, 1<<63, -1<<63, -1e20, 123456789012345678),
		"fractions":         val(0.1, -2.5, 0.0464, 1.0000000000000002, 100.125, 3.141592653589793),
		"exponent edges":    val(1e21, 9.999999999999999e20, -1e21, 1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e22, 1e100),
		"extremes":          val(5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308),
		"NaN":               val(1, math.NaN()),
		"+Inf":              val(math.Inf(1)),
		"-Inf":              val(2, 3, math.Inf(-1), 4),
		"long":              long,
		"NaN after drains":  append(long[:len(long):len(long)], val(math.NaN())...),
	}
}

// TestEncoderMatchesEncodingJSON: over the table, the append encoder and
// the encoding/json reference write the same bytes or both fail.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	for name, series := range encoderTable() {
		t.Run(name, func(t *testing.T) { checkAgainstReference(t, series, latestOf(series)) })
	}
	// The table means to leave the single-buffer case behind.
	var buf bytes.Buffer
	if err := writeSeriesJSON(&buf, encoderTable()["long"], nil); err != nil || buf.Len() < 4*streamFlushBytes {
		t.Fatalf("the long case renders to %d bytes (%v), want several times streamFlushBytes", buf.Len(), err)
	}
}

// TestEncoderDrainsAndFlushesByBytes: a body is written out in pieces of
// at least streamFlushBytes with a flush after each, the last piece
// without one; the flushes see everything rendered before them.
func TestEncoderDrainsAndFlushesByBytes(t *testing.T) {
	series := encoderTable()["long"]
	var buf bytes.Buffer
	var flushedAt []int
	if err := writeSeriesJSON(&buf, series, func() { flushedAt = append(flushedAt, buf.Len()) }); err != nil {
		t.Fatal(err)
	}
	if len(flushedAt) < 4 {
		t.Fatalf("a %d-byte body was flushed %d times", buf.Len(), len(flushedAt))
	}
	prev := 0
	for _, at := range flushedAt {
		if at-prev < streamFlushBytes || at-prev > streamFlushBytes+512 {
			t.Errorf("flush at byte %d follows the one at %d: want a little over %d between", at, prev, streamFlushBytes)
		}
		prev = at
	}
	if buf.Len() == prev {
		t.Error("the body's end was flushed by the encoder; net/http does that")
	}
}

// FuzzBodyEncoder: series built from arbitrary key bytes, instants, zone
// offsets and values render as encoding/json renders them, or fail when
// it fails, through the series and the latest encoder alike.
func FuzzBodyEncoder(f *testing.F) {
	for _, series := range encoderTable() {
		for _, sr := range series {
			p := tsdb.Point{}
			if len(sr.Points) > 0 {
				p = sr.Points[len(sr.Points)-1]
			}
			_, offset := p.At.Zone()
			f.Add(sr.Key.Dataset, sr.Key.Type, sr.Key.Region, sr.Key.AZ,
				p.At.Unix(), int64(p.At.Nanosecond()), int32(offset), p.Value, uint16(len(sr.Points)))
		}
	}
	f.Fuzz(func(t *testing.T, dataset, typ, region, az string, sec, nsec int64, offset int32, value float64, n uint16) {
		at := time.Unix(sec, nsec).UTC()
		if offset != 0 {
			at = at.In(time.FixedZone("", int(offset)))
		}
		// n points a series: the fuzzed one first, then the same instant
		// stepped on a 10-minute grid with the value rescaled, so that a
		// large n crosses buffer drains at ever different offsets.
		pts := make([]tsdb.Point, n%3000)
		for i := range pts {
			pts[i] = tsdb.Point{At: at.Add(time.Duration(i) * 10 * time.Minute), Value: value * float64(1+i%7)}
		}
		if n%5 == 4 {
			pts = nil
		}
		series := []SeriesResult{
			{Key: tsdb.SeriesKey{Dataset: dataset, Type: typ, Region: region, AZ: az}, Points: pts},
			{Key: tsdb.SeriesKey{Dataset: az, Type: region, Region: typ, AZ: dataset}, Points: pts[:len(pts)/2]},
		}
		checkAgainstReference(t, series[:1+n%2], latestOf(series))
	})
}

var updateGolden = flag.Bool("update-golden", false, "rewrite internal/archive/testdata/*.golden.json from the bodies served")

// goldenArchive is a small disk archive with both tiers in play: three
// series of 80 ten-minute points sealed into cold blocks by a checkpoint,
// then six more points each in the hot tail, the last off the grid.
func goldenArchive(t *testing.T) *Service {
	t.Helper()
	db, err := tsdb.OpenWithOptions(t.TempDir(), diskOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	keys := []tsdb.SeriesKey{
		{Dataset: tsdb.DatasetPlacementScore, Type: "m5.xlarge", Region: "us-east-1", AZ: "use1-az1"},
		{Dataset: tsdb.DatasetPlacementScore, Type: "m5.xlarge", Region: "us-east-1", AZ: "use1-az2"},
		{Dataset: tsdb.DatasetPlacementScore, Type: "c5.large", Region: "us-east-1", AZ: ""},
	}
	appendTicks := func(from, to int) {
		var batch []tsdb.Entry
		for i := from; i < to; i++ {
			for s, k := range keys {
				at := simclock.Epoch.Add(time.Duration(i) * 10 * time.Minute)
				v := float64(1 + (i/(s+2)+s)%10)
				if i == to-1 {
					at, v = at.Add(time.Duration(s+1)*1500*time.Millisecond+42), v+0.0464
				}
				batch = append(batch, tsdb.Entry{Key: k, At: at, Value: v})
			}
		}
		if n, err := db.AppendBatch(batch); err != nil || n != len(batch) {
			t.Fatalf("stored %d of %d: %v", n, len(batch), err)
		}
	}
	appendTicks(0, 80)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendTicks(80, 86)
	if db.SealedBlocks() == 0 {
		t.Fatal("the checkpoint sealed nothing: the golden archive has no cold tier")
	}
	return NewService(db, catalog.Compact(1))
}

// TestGoldenBodies: a cursor page that crosses a series boundary and the
// cold/hot boundary, and a latest answer, are the checked-in bytes — as
// the miss that builds the stored body, the hit served from it, and the
// identity stream.
func TestGoldenBodies(t *testing.T) {
	for file, path := range map[string]string{
		"query_page.golden.json": "/api/v1/query?dataset=sps&region=us-east-1&limit=100&cursor=",
		"latest.golden.json":     "/api/v1/latest?dataset=sps",
	} {
		t.Run(file, func(t *testing.T) {
			s := goldenArchive(t)
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			miss := fetchWire(t, srv.URL+path, true)
			hit := fetchWire(t, srv.URL+path, true)
			identity := fetchWire(t, srv.URL+path, false)
			if cache := func(name string) float64 { return metric(t, s.reg, "spotlake_cache_"+name) }; cache("misses_total") != 1 || cache("body_hits_total") != 1 || cache("hits_total") != 2 {
				t.Fatalf("%v, want a miss, a stored-body hit and a streamed hit", s.reg.Sections()["cache"])
			}
			name := filepath.Join("testdata", file)
			if *updateGolden {
				if err := os.WriteFile(name, identity.plain, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for what, got := range map[string][]byte{"miss": miss.plain, "hit": hit.plain, "identity": identity.plain} {
				if !bytes.Equal(got, want) {
					t.Errorf("%s body is not %s:\n got %.300q\nwant %.300q", what, name, got, want)
				}
			}
		})
	}
}
