package tsdb

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func FuzzParseSeriesKey(f *testing.F) {
	f.Add("sps|m5.xlarge|us-east-1|us-east-1a")
	f.Add("if|p3.2xlarge|eu-west-1|")
	f.Add("")
	f.Add("a|b")
	f.Add("||||")
	f.Add("price|a|b|c|d")
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseSeriesKey(s)
		if err != nil {
			return
		}
		// A successfully parsed key must round-trip exactly.
		back, err := ParseSeriesKey(k.String())
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", k.String(), err)
		}
		if back != k {
			t.Fatalf("round trip mismatch: %v vs %v", back, k)
		}
		// Mandatory fields are non-empty on success.
		if k.Dataset == "" || k.Type == "" || k.Region == "" {
			t.Fatalf("parse accepted incomplete key from %q", s)
		}
		// Exactly three separators in canonical form.
		if strings.Count(k.String(), "|") != 3 {
			t.Fatalf("canonical form %q malformed", k.String())
		}
	})
}

// FuzzManifestDecode feeds arbitrary bytes to the manifest parser that
// recovery trusts. Corrupt or hostile input must return an error — never
// panic, never yield a manifest violating the invariants replay indexes
// by (segment count matching the shard-layout list, ascending per-shard
// segment sequences, a plain-filename checkpoint reference). Accepted
// manifests must re-marshal into something the parser accepts again.
func FuzzManifestDecode(f *testing.F) {
	v2, _ := json.Marshal(manifest{
		Version: 2, Epoch: 3, Segments: 2, Checkpoint: checkpointName(4), CheckpointSeq: 4,
		Shards: []shardLayout{
			{Offset: 100, Segs: []segRef{{Seq: 1, Base: 0}, {Seq: 2, Base: 80}}},
			{Offset: 0, Segs: []segRef{{Seq: 1, Base: 0}}},
		},
	})
	f.Add(v2)
	f.Add([]byte(`{"version":1,"epoch":1,"segments":2,"checkpointSeq":0,"offsets":[0,42]}`)) // pre-rotation manifest: must be rejected
	f.Add([]byte(`{"version":2,"segments":1,"shards":[]}`))
	f.Add([]byte(`{"version":2,"segments":1,"shards":[{"offset":0,"segs":[]}]}`))
	f.Add([]byte(`{"version":1,"segments":3,"offsets":[0]}`))
	f.Add([]byte(`{"version":2,"segments":1,"checkpoint":"../escape","shards":[{"segs":[{"seq":1}]}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		if m.Segments <= 0 || len(m.Shards) != m.Segments {
			t.Fatalf("accepted manifest with %d segments but %d shard layouts", m.Segments, len(m.Shards))
		}
		if m.Version == manifestVersion {
			for si, sl := range m.Shards {
				if len(sl.Segs) == 0 {
					t.Fatalf("accepted v2 manifest with empty segment list for shard %d", si)
				}
				for j := 1; j < len(sl.Segs); j++ {
					if sl.Segs[j].Seq <= sl.Segs[j-1].Seq || sl.Segs[j].Base < sl.Segs[j-1].Base {
						t.Fatalf("accepted v2 manifest with non-ascending chain for shard %d", si)
					}
				}
			}
		}
		if m.Checkpoint != "" && strings.ContainsAny(m.Checkpoint, "/\\") {
			t.Fatalf("accepted checkpoint reference escaping the data dir: %q", m.Checkpoint)
		}
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-marshal of accepted manifest failed: %v", err)
		}
		if _, err := parseManifest(raw); err != nil {
			t.Fatalf("re-parse of accepted manifest failed: %v", err)
		}
	})
}

// fuzzBlockSeed encodes one valid compressed block to seed the corpus.
func fuzzBlockSeed(n int, step time.Duration, v func(i int) float64) []byte {
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{At: base.Add(time.Duration(i) * step), Value: v(i)}
	}
	return encodeBlock(pts).data
}

// FuzzBlockDecode feeds hostile compressed blocks — truncated,
// bit-flipped, or arbitrary bytes, with an adversarial point count — to
// the block decoder that cold reads trust. Corrupt input must return an
// error: never panic, never over-allocate, never decode out-of-order
// timestamps. Input that does decode must survive a full re-encode /
// re-decode round trip bit-exactly at the point level. (The bitstream
// itself is not canonical: a hostile encoder may pick a wider dod bucket
// than needed, which decodes fine but re-encodes narrower.)
func FuzzBlockDecode(f *testing.F) {
	f.Add([]byte{}, 1)
	f.Add([]byte{0xff}, 1)
	f.Add(fuzzBlockSeed(1, time.Second, func(int) float64 { return 1.5 }), 1)
	f.Add(fuzzBlockSeed(64, time.Minute, func(i int) float64 { return float64(i % 5) }), 64)
	f.Add(fuzzBlockSeed(128, time.Second, func(i int) float64 { return 0.01 * float64(i) }), 128)
	s := fuzzBlockSeed(32, time.Minute, func(i int) float64 { return float64(i % 3) })
	s[len(s)/2] ^= 0x10
	f.Add(s, 32)
	s2 := fuzzBlockSeed(32, time.Minute, func(i int) float64 { return float64(i % 3) })
	f.Add(s2[:len(s2)/2], 32)

	f.Fuzz(func(t *testing.T, data []byte, count int) {
		pts, err := decodeBlock(data, count)
		if err != nil {
			return
		}
		if len(pts) != count {
			t.Fatalf("decode returned %d points for count %d", len(pts), count)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].At.Before(pts[i-1].At) {
				t.Fatalf("decode accepted out-of-order timestamps at %d", i)
			}
		}
		// Round trip: what decoded must re-encode and decode back to the
		// same points, bit-for-bit on the float values.
		back := encodeBlock(pts)
		again, err := decodeBlock(back.data, len(pts))
		if err != nil {
			t.Fatalf("re-decode of re-encoded block failed: %v", err)
		}
		for i := range pts {
			if !again[i].At.Equal(pts[i].At) ||
				math.Float64bits(again[i].Value) != math.Float64bits(pts[i].Value) {
				t.Fatalf("round trip changed point %d: %v vs %v", i, again[i], pts[i])
			}
		}
	})
}

// fuzzSnapshotSeed builds a valid snapshot to seed the corpus.
func fuzzSnapshotSeed(seriesN, pointsN int) []byte {
	db, _ := OpenSharded("", 4)
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	for s := 0; s < seriesN; s++ {
		k := SeriesKey{Dataset: "sps", Type: "m5.xlarge", Region: "us-east-1", AZ: string(rune('a' + s))}
		for i := 0; i < pointsN; i++ {
			_ = db.Append(k, base.Add(time.Duration(i)*time.Minute), float64(i%5))
		}
	}
	var buf bytes.Buffer
	_ = encodeSnapshot(&buf, db.capture())
	return buf.Bytes()
}

// FuzzSnapshotCodec feeds arbitrary byte streams to decodeSnapshot, the
// trust boundary for checkpoint files. Corrupt input must return an error
// — never panic, never allocate absurdly, never hand back records
// alongside it. Input that does decode must re-encode and decode back to
// the same records (full round trip).
func FuzzSnapshotCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapshotMagic))
	f.Add(fuzzSnapshotSeed(0, 0))
	f.Add(fuzzSnapshotSeed(1, 3))
	f.Add(fuzzSnapshotSeed(3, 7))
	// A couple of deliberate corruptions as starting points.
	s := fuzzSnapshotSeed(2, 4)
	s[len(s)-1] ^= 0xff
	f.Add(s)
	s2 := fuzzSnapshotSeed(2, 4)
	s2[9] ^= 0x01 // version byte
	f.Add(s2)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := decodeSnapshot(bytes.NewReader(data))
		if err != nil {
			// Malformed input must not yield a partial record list a
			// caller could apply.
			if recs != nil {
				t.Fatalf("failed decode returned %d records", len(recs))
			}
			return
		}
		for _, rec := range recs {
			for j := 1; j < len(rec.points); j++ {
				if rec.points[j].At.Before(rec.points[j-1].At) {
					t.Fatalf("decode accepted out-of-order points in %v", rec.key)
				}
			}
		}
		// Round trip: what decoded must encode and decode identically.
		var buf bytes.Buffer
		if err := encodeSnapshot(&buf, recs); err != nil {
			t.Fatalf("re-encode of decoded snapshot failed: %v", err)
		}
		again, err := decodeSnapshot(&buf)
		if err != nil {
			t.Fatalf("decode of re-encoded snapshot failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed the record count: %d vs %d", len(again), len(recs))
		}
		for i := range recs {
			if again[i].key != recs[i].key || len(again[i].points) != len(recs[i].points) {
				t.Fatalf("round trip changed record %d: %v/%d points vs %v/%d", i,
					again[i].key, len(again[i].points), recs[i].key, len(recs[i].points))
			}
			for j, p := range recs[i].points {
				if q := again[i].points[j]; !q.At.Equal(p.At) || math.Float64bits(q.Value) != math.Float64bits(p.Value) {
					t.Fatalf("round trip changed record %d point %d: %v vs %v", i, j, q, p)
				}
			}
		}
	})
}
