package tsdb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/simrand"
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
// panic, never yield a manifest violating the invariants recovery
// indexes by (a nonzero first uncovered generation, a plain-filename
// checkpoint reference). Accepted manifests must re-marshal into
// something the parser accepts again.
func FuzzManifestDecode(f *testing.F) {
	v6, _ := json.Marshal(manifest{
		Version: manifestVersion, WALSeq: 7, Checkpoint: checkpointName(4), CheckpointSeq: 4,
		Blocks: []uint64{1, 3}, BlockSeq: 3,
	})
	f.Add(v6)
	f.Add([]byte(`{"version":5,"walSeq":1}`))                        // per-point WAL records: must be rejected
	f.Add([]byte(`{"version":4,"epoch":1,"segments":2,"walSeq":1}`)) // per-shard chains: must be rejected
	f.Add([]byte(`{"version":3,"segments":1,"shards":[{"offset":0,"segs":[{"seq":1,"base":0}]}]}`))
	f.Add([]byte(`{"version":6,"walSeq":1,"segments":1000000000000}`))
	f.Add([]byte(`{"version":1,"segments":3,"offsets":[0]}`))
	f.Add([]byte(`{"version":6,"walSeq":1,"checkpoint":"../escape"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"version":6,"walSeq":0}`))
	f.Add([]byte(`{"version":6,"walSeq":2,"epoch":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		if m.WALSeq == 0 {
			t.Fatal("accepted manifest with walSeq 0")
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

// fuzzBlockPoints builds n points step apart, valued v(i).
func fuzzBlockPoints(n int, step time.Duration, v func(i int) float64) []sample {
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	pts := make([]sample, n)
	for i := range pts {
		pts[i] = sample{ns: base.Add(time.Duration(i) * step).UnixNano(), v: v(i)}
	}
	return pts
}

// fuzzBlockSeed encodes one valid compressed block to seed the corpus.
func fuzzBlockSeed(n int, step time.Duration, v func(i int) float64) []byte {
	return encodeBlock(fuzzBlockPoints(n, step, v)).data
}

// fuzzBlockSeedPoints are the points behind FuzzBlockDecode's valid
// seeds, beside decodeShapeCases.
func fuzzBlockSeedPoints() [][]sample {
	return [][]sample{
		fuzzBlockPoints(1, time.Second, func(int) float64 { return 1.5 }),
		fuzzBlockPoints(64, time.Minute, func(i int) float64 { return float64(i % 5) }),
		fuzzBlockPoints(128, time.Second, func(i int) float64 { return 0.01 * float64(i) }),
		fuzzBlockPoints(32, time.Minute, func(i int) float64 { return float64(i % 3) }),
		fuzzBlockPoints(16, time.Minute, func(i int) float64 { return float64(i % 2) }),
	}
}

// bitReader consumes bits MSB-first from a byte slice, erroring (never
// panicking) past the end. Only decodeBlockRef uses it.
type bitReader struct {
	data []byte
	// pos is the bit position of the next unread bit.
	pos uint64
}

func (r *bitReader) readBit() (bool, error) {
	i := r.pos >> 3
	if i >= uint64(len(r.data)) {
		return false, errBlockTruncated
	}
	bit := r.data[i]>>(7-r.pos&7)&1 == 1
	r.pos++
	return bit, nil
}

// readBits reads n bits, MSB-first. n must be in [0, 64].
func (r *bitReader) readBits(n uint) (uint64, error) {
	if r.pos+uint64(n) > uint64(len(r.data))*8 {
		return 0, errBlockTruncated
	}
	var v uint64
	for n >= 8 {
		i := r.pos >> 3
		shift := r.pos & 7
		b := r.data[i] << shift
		if shift > 0 && i+1 < uint64(len(r.data)) {
			b |= r.data[i+1] >> (8 - shift)
		}
		v = v<<8 | uint64(b)
		r.pos += 8
		n -= 8
	}
	for n > 0 {
		bit, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v <<= 1
		if bit {
			v |= 1
		}
		n--
	}
	return v, nil
}

// decodeBlockRef is the bit-at-a-time block decoder decodeBlock
// replaced, kept as the differential oracle: every input must make both
// error with the same message, or both return identical samples.
func decodeBlockRef(data []byte, count int) ([]sample, error) {
	if count < 1 || count > maxBlockPoints {
		return nil, fmt.Errorf("tsdb: block point count %d out of range", count)
	}
	if len(data) > maxBlockBytes {
		return nil, fmt.Errorf("tsdb: block length %d out of range", len(data))
	}
	r := bitReader{data: data}
	pts := make([]sample, 0, count)
	var prevT, prevDelta int64
	var prevBits uint64
	prevLead, prevSig := uint8(0xff), uint8(0)
	for i := 0; i < count; i++ {
		if i == 0 {
			t, err := r.readBits(64)
			if err != nil {
				return nil, err
			}
			v, err := r.readBits(64)
			if err != nil {
				return nil, err
			}
			prevT, prevBits = int64(t), v
			pts = append(pts, sample{ns: prevT, v: math.Float64frombits(v)})
			continue
		}
		// Timestamp: read the dod bucket prefix.
		var dod int64
		bit, err := r.readBit()
		if err != nil {
			return nil, err
		}
		if bit {
			n := uint(16)
			for _, wider := range []uint{32, 48, 64} {
				more, err := r.readBit()
				if err != nil {
					return nil, err
				}
				if !more {
					break
				}
				n = wider
			}
			z, err := r.readBits(n)
			if err != nil {
				return nil, err
			}
			dod = unzigzag(z)
		}
		prevDelta += dod
		prevT += prevDelta
		// Value: XOR control bits.
		bit, err = r.readBit()
		if err != nil {
			return nil, err
		}
		if bit {
			windowed, err := r.readBit()
			if err != nil {
				return nil, err
			}
			if windowed {
				lead, err := r.readBits(5)
				if err != nil {
					return nil, err
				}
				sigRaw, err := r.readBits(6)
				if err != nil {
					return nil, err
				}
				prevLead = uint8(lead)
				prevSig = uint8(sigRaw)
				if prevSig == 0 {
					prevSig = 64
				}
				if int(prevLead)+int(prevSig) > 64 {
					return nil, fmt.Errorf("tsdb: block value window %d+%d overflows", prevLead, prevSig)
				}
			} else if prevLead == 0xff {
				return nil, errors.New("tsdb: block reuses value window before defining one")
			}
			mbits, err := r.readBits(uint(prevSig))
			if err != nil {
				return nil, err
			}
			prevBits ^= mbits << (64 - prevLead - prevSig)
		}
		pts = append(pts, sample{ns: prevT, v: math.Float64frombits(prevBits)})
		if pts[i].ns < pts[i-1].ns {
			return nil, errors.New("tsdb: block timestamps out of order")
		}
	}
	// Trailing data beyond the final byte's bit padding means the index's
	// count disagrees with the stream — corruption either way.
	if (r.pos+7)/8 != uint64(len(data)) {
		return nil, errors.New("tsdb: block has trailing data")
	}
	return pts, nil
}

// checkDecodersAgree decodes data with decodeBlock and decodeBlockRef and
// fails unless both error with the same message or both return the same
// samples: equal unix nanoseconds and bit-equal values. It returns
// decodeBlock's samples (nil on error).
func checkDecodersAgree(t testing.TB, data []byte, count int) []sample {
	t.Helper()
	got, err := decodeBlock(nil, data, count, noHorizon)
	want, refErr := decodeBlockRef(data, count)
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("decoders disagree on %d bytes, count %d: %v vs reference %v", len(data), count, err, refErr)
	}
	if err != nil {
		return nil
	}
	if len(got) != len(want) {
		t.Fatalf("decoders disagree on length: %d vs reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ns != want[i].ns || math.Float64bits(got[i].v) != math.Float64bits(want[i].v) {
			t.Fatalf("decoders disagree at point %d: %v vs reference %v", i, got[i], want[i])
		}
	}
	return got
}

// bitWriterRef is the bit-at-a-time writer encodeBlock used before its
// 64-bit accumulator, and encodeBlockRef is encodeBlock over it, both as
// they were: the oracle that holds the encoder to byte-identical output.
type bitWriterRef struct {
	data []byte
	// free is how many low bits of the last byte are still unset (0 when
	// the stream ends on a byte boundary).
	free uint8
}

func (w *bitWriterRef) writeBit(bit bool) {
	if w.free == 0 {
		w.data = append(w.data, 0)
		w.free = 8
	}
	if bit {
		w.data[len(w.data)-1] |= 1 << (w.free - 1)
	}
	w.free--
}

func (w *bitWriterRef) writeByte(b byte) {
	if w.free == 0 {
		w.data = append(w.data, b)
		return
	}
	i := len(w.data) - 1
	w.data[i] |= b >> (8 - w.free)
	w.data = append(w.data, b<<w.free)
}

// writeBits writes the low n bits of v, MSB-first. n must be in [0, 64].
func (w *bitWriterRef) writeBits(v uint64, n uint) {
	for n >= 8 {
		n -= 8
		w.writeByte(byte(v >> n))
	}
	for n > 0 {
		n--
		w.writeBit(v>>n&1 == 1)
	}
}

func encodeBlockRef(pts []sample) []byte {
	var w bitWriterRef
	var prevT, prevDelta int64
	var prevBits uint64
	prevLead, prevSig := uint8(0xff), uint8(0)
	for i, p := range pts {
		t := p.ns
		v := math.Float64bits(p.v)
		if i == 0 {
			w.writeBits(uint64(t), 64)
			w.writeBits(v, 64)
			prevT, prevDelta, prevBits = t, 0, v
			continue
		}
		delta := t - prevT
		dod := delta - prevDelta
		prevT, prevDelta = t, delta
		switch z := zigzag(dod); {
		case z == 0:
			w.writeBit(false)
		case z < 1<<16:
			w.writeBits(0b10, 2)
			w.writeBits(z, 16)
		case z < 1<<32:
			w.writeBits(0b110, 3)
			w.writeBits(z, 32)
		case z < 1<<48:
			w.writeBits(0b1110, 4)
			w.writeBits(z, 48)
		default:
			w.writeBits(0b1111, 4)
			w.writeBits(z, 64)
		}
		xor := v ^ prevBits
		prevBits = v
		if xor == 0 {
			w.writeBit(false)
			continue
		}
		lead := uint8(bits.LeadingZeros64(xor))
		if lead > 31 {
			lead = 31
		}
		trail := uint8(bits.TrailingZeros64(xor))
		if prevLead != 0xff && lead >= prevLead && trail >= 64-prevLead-prevSig {
			w.writeBits(0b10, 2)
			w.writeBits(xor>>(64-prevLead-prevSig), uint(prevSig))
			continue
		}
		sig := 64 - lead - trail
		w.writeBits(0b11, 2)
		w.writeBits(uint64(lead), 5)
		w.writeBits(uint64(sig&0x3f), 6)
		w.writeBits(xor>>trail, uint(sig))
		prevLead, prevSig = lead, sig
	}
	return w.data
}

// checkEncoderMatchesRef fails unless encodeBlock and encodeBlockRef
// write the same bytes for pts.
func checkEncoderMatchesRef(t testing.TB, pts []sample) {
	t.Helper()
	if got, want := encodeBlock(pts).data, encodeBlockRef(pts); !bytes.Equal(got, want) {
		t.Fatalf("encodeBlock wrote %d bytes %x, reference %d bytes %x", len(got), got, len(want), want)
	}
}

// TestBlockEncoderMatchesReference holds the accumulator writer to the
// bit-at-a-time one: random write sequences of every width 0–64 (with
// junk above the written bits), every FuzzBlockDecode and
// decodeShapeCases block, archive-shaped blocks, and random blocks that
// reach every dod bucket and value window case.
func TestBlockEncoderMatchesReference(t *testing.T) {
	rng := simrand.New(11).Stream("bitwriter")
	for trial := 0; trial < 20000; trial++ {
		var w bitWriter
		var ref bitWriterRef
		for n := rng.Intn(40); n > 0; n-- {
			v, width := rng.Uint64(), uint(rng.Intn(65))
			w.writeBits(v, width)
			ref.writeBits(v, width)
		}
		if got := w.bytes(); !bytes.Equal(got, ref.data) {
			t.Fatalf("trial %d: accumulator wrote %x, reference %x", trial, got, ref.data)
		}
	}
	for _, c := range decodeShapeCases() {
		checkEncoderMatchesRef(t, c.pts)
	}
	for _, pts := range fuzzBlockSeedPoints() {
		checkEncoderMatchesRef(t, pts)
	}
	for seed := uint64(1); seed <= 64; seed++ {
		checkEncoderMatchesRef(t, archiveBlockPoints(seed, 1+int(seed)*13))
	}
	steps := []int64{0, 1, 1 << 20, 1 << 40, 1 << 55}
	for trial := 0; trial < 2000; trial++ {
		pts := make([]sample, 1+rng.Intn(300))
		ns, step := int64(rng.Uint64()>>2), int64(60e9)
		v := math.Float64bits(float64(rng.Intn(10)))
		for i := range pts {
			pts[i] = sample{ns: ns, v: math.Float64frombits(v)}
			if rng.Intn(8) == 0 {
				step = int64(rng.Uint64() % uint64(steps[rng.Intn(len(steps))]+1))
			}
			ns += step
			switch rng.Intn(4) {
			case 0: // repeat
			case 1:
				v ^= rng.Uint64()
			default:
				v = math.Float64bits(float64(rng.Intn(10)) + 0.5*float64(rng.Intn(3)))
			}
		}
		checkEncoderMatchesRef(t, pts)
	}
}

// FuzzBlockDecode feeds hostile compressed blocks — truncated,
// bit-flipped, or arbitrary bytes, with an adversarial point count — to
// the block decoder that cold reads trust. Corrupt input must return an
// error: never panic, never over-allocate, never decode out-of-order
// timestamps. Input that does decode must survive a full re-encode /
// re-decode round trip bit-exactly at the point level. (The bitstream
// itself is not canonical: a hostile encoder may pick a wider dod bucket
// than needed, which decodes fine but re-encodes narrower.) Every input
// is also decoded by decodeBlockRef, and the two must agree.
//
// The fuzzed horizon drives a window decode of the same input beside
// the full one. On any input it must not panic or allocate beyond the
// count; wherever the full decode succeeds, it must return exactly the
// full decode's prefix through the first point past the horizon, or all
// of it when no point lies past.
func FuzzBlockDecode(f *testing.F) {
	mid := t0.Add(30 * time.Minute).UnixNano()
	f.Add([]byte{}, 1, noHorizon)
	f.Add([]byte{0xff}, 1, int64(0))
	f.Add(fuzzBlockSeed(1, time.Second, func(int) float64 { return 1.5 }), 1, mid)
	f.Add(fuzzBlockSeed(64, time.Minute, func(i int) float64 { return float64(i % 5) }), 64, mid)
	f.Add(fuzzBlockSeed(128, time.Second, func(i int) float64 { return 0.01 * float64(i) }), 128, t0.UnixNano())
	s := fuzzBlockSeed(32, time.Minute, func(i int) float64 { return float64(i % 3) })
	s[len(s)/2] ^= 0x10
	f.Add(s, 32, mid)
	s2 := fuzzBlockSeed(32, time.Minute, func(i int) float64 { return float64(i % 3) })
	f.Add(s2[:len(s2)/2], 32, mid)
	for _, c := range decodeShapeCases() {
		f.Add(encodeBlock(c.pts).data, len(c.pts), c.pts[len(c.pts)/2].ns)
	}
	// A stream whose last bit is a value's first '1' control bit: the zero
	// padding past the end reads as "reuse the window" before any is
	// defined, and must report truncation, as the reference does.
	f.Add(append(make([]byte, 16), 0x01), 5, noHorizon)
	// Trailing data a window decode stops short of: only the full decode
	// may reject it.
	f.Add(append(fuzzBlockSeed(16, time.Minute, func(i int) float64 { return float64(i % 2) }), 0xA5, 0x5A), 16, mid)

	f.Fuzz(func(t *testing.T, data []byte, count int, horizon int64) {
		pts := checkDecodersAgree(t, data, count)
		win, werr := decodeBlock(nil, data, count, horizon)
		if werr == nil && (len(win) == 0 || cap(win) > count) {
			t.Fatalf("window decode returned %d points in a %d-point slice for count %d", len(win), cap(win), count)
		}
		if pts == nil {
			return
		}
		if len(pts) != count {
			t.Fatalf("decode returned %d points for count %d", len(pts), count)
		}
		want := len(pts)
		for i, p := range pts {
			if p.ns > horizon {
				want = i + 1
				break
			}
		}
		if werr != nil || len(win) != want {
			t.Fatalf("window decode through %d = (%d points, %v), want the full decode's first %d", horizon, len(win), werr, want)
		}
		for i := range win {
			if win[i].ns != pts[i].ns || math.Float64bits(win[i].v) != math.Float64bits(pts[i].v) {
				t.Fatalf("window decode point %d = %v, full decode %v", i, win[i], pts[i])
			}
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].ns < pts[i-1].ns {
				t.Fatalf("decode accepted out-of-order timestamps at %d", i)
			}
		}
		// Round trip: what decoded must re-encode — into the bytes the
		// reference writer produces — and decode back to the same points,
		// bit-for-bit on the float values.
		checkEncoderMatchesRef(t, pts)
		back := encodeBlock(pts)
		again, err := decodeBlock(nil, back.data, len(pts), noHorizon)
		if err != nil {
			t.Fatalf("re-decode of re-encoded block failed: %v", err)
		}
		for i := range pts {
			if again[i].ns != pts[i].ns ||
				math.Float64bits(again[i].v) != math.Float64bits(pts[i].v) {
				t.Fatalf("round trip changed point %d: %v vs %v", i, again[i], pts[i])
			}
		}
	})
}

// decodeShapeCases are the blocks the decoder table tests and seeds the
// fuzzer with: archive-shaped blocks, one block per dod bucket width, a
// 64-significant-bit value window that is then reused, and one point.
func decodeShapeCases() []struct {
	name string
	pts  []sample
} {
	type shape = struct {
		name string
		pts  []sample
	}
	var out []shape
	for seed := uint64(1); seed <= 3; seed++ {
		out = append(out, shape{fmt.Sprintf("archive-%d", seed), archiveBlockPoints(seed, 512)})
	}
	// Each dod bucket: after a 1-minute cadence, one jump whose dod
	// zigzags into the bucket, then the cadence again (a second dod of
	// the same size back).
	for _, jump := range []time.Duration{10 * time.Microsecond, time.Second, time.Hour, 200 * 24 * time.Hour} {
		pts := make([]sample, 8)
		at := t0
		for i := range pts {
			pts[i] = sample{ns: at.UnixNano(), v: float64(i % 2)}
			at = at.Add(time.Minute)
			if i == 3 {
				at = at.Add(jump)
			}
		}
		out = append(out, shape{fmt.Sprintf("dod-jump-%v", jump), pts})
	}
	wide := []uint64{0, 0x8000000000000001, 0x0000000000000001, 0x8000000000000000, 0x8000000000000001}
	pts := make([]sample, len(wide))
	for i, b := range wide {
		pts[i] = sample{ns: t0.Add(time.Duration(i) * time.Second).UnixNano(), v: math.Float64frombits(b)}
	}
	out = append(out, shape{"window-64", pts})
	out = append(out, shape{"single", []sample{{ns: t0.UnixNano(), v: 3.25}}})
	return out
}

// TestBlockDecodeTruncationPrefixes decodes every byte prefix of every
// decodeShapeCases block with both decoders: they must agree on each
// (same error, or same points), and the full block must round-trip.
func TestBlockDecodeTruncationPrefixes(t *testing.T) {
	buckets := map[uint]bool{}
	for _, c := range decodeShapeCases() {
		eb := encodeBlock(c.pts)
		for n := 0; n < len(eb.data); n++ {
			checkDecodersAgree(t, eb.data[:n], len(c.pts))
		}
		got := checkDecodersAgree(t, eb.data, len(c.pts))
		if got == nil {
			t.Fatalf("%s: full block failed to decode", c.name)
		}
		for i, p := range c.pts {
			if got[i].ns != p.ns || math.Float64bits(got[i].v) != math.Float64bits(p.v) {
				t.Fatalf("%s: point %d = %v, want %v", c.name, i, got[i], p)
			}
		}
		for i := 2; i < len(c.pts); i++ {
			dod := (c.pts[i].ns - c.pts[i-1].ns) - (c.pts[i-1].ns - c.pts[i-2].ns)
			if z := zigzag(dod); z != 0 {
				buckets[uint(bits.Len64(z)+15)/16*16] = true
			}
		}
	}
	for _, w := range []uint{16, 32, 48, 64} {
		if !buckets[w] {
			t.Errorf("no case exercises the %d-bit dod bucket", w)
		}
	}
}

// fuzzCheckpointSeed builds a valid checkpoint file to seed the corpus.
func fuzzCheckpointSeed(seriesN, pointsN int) []byte {
	db, _ := OpenSharded("", 4)
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	for s := 0; s < seriesN; s++ {
		k := SeriesKey{Dataset: "sps", Type: "m5.xlarge", Region: "us-east-1", AZ: string(rune('a' + s))}
		for i := 0; i < pointsN; i++ {
			_ = db.Append(k, base.Add(time.Duration(i)*time.Minute), float64(i%5))
		}
	}
	var buf bytes.Buffer
	_ = writeCheckpoint(&buf, db.capture())
	return buf.Bytes()
}

// withIndexCRC returns data with its footer's index CRC recomputed, when
// the footer locates an index inside data, so fuzzed indexes reach the
// structural checks behind the CRC.
func withIndexCRC(data []byte) []byte {
	if len(data) < blockHeaderLen+blockFooterLen {
		return nil
	}
	foot := len(data) - blockFooterLen
	off := binary.LittleEndian.Uint64(data[foot:])
	n := uint64(binary.LittleEndian.Uint32(data[foot+8:]))
	if off > uint64(foot) || n > uint64(foot)-off {
		return nil
	}
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[foot+12:], crc32.ChecksumIEEE(out[off:off+n]))
	return out
}

// FuzzCheckpointFile feeds arbitrary bytes to readCheckpoint, the trust
// boundary for checkpoint files and, through readBlockIndex, for block
// file indexes: each input as given, and again with its index CRC made
// to match. Corrupt input must return an error — never panic, never
// allocate beyond what the input's size and one block's maxBlockPoints
// account for, never hand back series alongside the error. A file that
// loads must hold strictly key-ordered, time-ordered series, and must
// write and load back point for point, bit for bit.
func FuzzCheckpointFile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(blockFileMagic))
	f.Add(fuzzCheckpointSeed(0, 0))
	f.Add(fuzzCheckpointSeed(1, 3))
	f.Add(fuzzCheckpointSeed(3, 7))
	// A couple of deliberate corruptions as starting points.
	s := fuzzCheckpointSeed(2, 4)
	s[len(s)-1] ^= 0xff
	f.Add(s)
	s2 := fuzzCheckpointSeed(2, 4)
	s2[len(blockFileMagic)] ^= 0x01 // version byte
	f.Add(s2)

	f.Fuzz(func(t *testing.T, data []byte) {
		checkCheckpointLoad(t, data)
		if fixed := withIndexCRC(data); fixed != nil {
			checkCheckpointLoad(t, fixed)
		}
	})
}

func checkCheckpointLoad(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, err := loadSnapshot(data)
	runtime.ReadMemStats(&after)
	// The index is at most the input; points at most 4 per input byte
	// (2 bits each) doubled by slice growth, plus one bad block's worth.
	if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(8<<20+256*len(data)); alloc > bound {
		t.Fatalf("loading %d bytes allocated %d, over %d", len(data), alloc, bound)
	}
	if err != nil {
		if recs != nil {
			t.Fatalf("failed load returned %d series", len(recs))
		}
		return
	}
	for i, rec := range recs {
		if i > 0 && rec.canon <= recs[i-1].canon {
			t.Fatalf("load accepted series out of key order: %q after %q", rec.canon, recs[i-1].canon)
		}
		if len(rec.points) == 0 {
			t.Fatalf("load accepted series %v with no points", rec.key)
		}
		for j := 1; j < len(rec.points); j++ {
			if rec.points[j].ns < rec.points[j-1].ns {
				t.Fatalf("load accepted out-of-order points in %v", rec.key)
			}
		}
	}
	var buf bytes.Buffer
	if err := writeCheckpoint(&buf, recs); err != nil {
		t.Fatalf("write of a loaded checkpoint failed: %v", err)
	}
	again, err := loadSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("load of a rewritten checkpoint failed: %v", err)
	}
	if len(again) != len(recs) {
		t.Fatalf("round trip changed the series count: %d vs %d", len(again), len(recs))
	}
	for i := range recs {
		if again[i].key != recs[i].key || len(again[i].points) != len(recs[i].points) {
			t.Fatalf("round trip changed series %d: %v/%d points vs %v/%d", i,
				again[i].key, len(again[i].points), recs[i].key, len(recs[i].points))
		}
		for j, p := range recs[i].points {
			if q := again[i].points[j]; q.ns != p.ns || math.Float64bits(q.v) != math.Float64bits(p.v) {
				t.Fatalf("round trip changed series %d point %d: %v vs %v", i, j, q, p)
			}
		}
	}
}

// walRefEntry is one entry as the WAL replay reference decodes it.
type walRefEntry struct {
	id  uint64
	def bool
	key string
	ns  int64
	v   uint64
}

// replayRef decodes a segment's record bytes the slow, obvious way, as
// the format in wal.go describes them: records until the bytes end or a
// record is torn (short, longer than what is left, failing its crc). It
// returns every entry of the records before that point, how many bytes
// they take, and whether the record that follows is crc-valid but
// malformed: undecodable, naming an ID out of order or undefined, or
// defining a series by a key that is not four "|"-separated fields with
// the first three non-empty.
func replayRef(data []byte) (ents []walRefEntry, valid int, bad bool) {
	next := uint64(0)
	for {
		rest := data[valid:]
		if len(rest) < 8 {
			return ents, valid, false
		}
		n := uint64(binary.LittleEndian.Uint32(rest[4:]))
		if n > uint64(len(rest)-8) || crc32.ChecksumIEEE(rest[4:8+n]) != binary.LittleEndian.Uint32(rest) {
			return ents, valid, false
		}
		r := bytes.NewReader(rest[8 : 8+n])
		var rec []walRefEntry
		base, err := binary.ReadVarint(r)
		if err != nil {
			return ents, valid, true
		}
		for r.Len() > 0 {
			tag, err := binary.ReadUvarint(r)
			if err != nil {
				return ents, valid, true
			}
			e := walRefEntry{id: tag >> 1, def: tag&1 == 1}
			if e.def {
				keyLen, err := binary.ReadUvarint(r)
				if err != nil || e.id != next || keyLen > uint64(r.Len()) {
					return ents, valid, true
				}
				next++
				key := make([]byte, keyLen)
				r.Read(key)
				e.key = string(key)
				if f := strings.Split(e.key, "|"); len(f) != 4 || f[0] == "" || f[1] == "" || f[2] == "" {
					return ents, valid, true
				}
			} else if e.id >= next {
				return ents, valid, true
			}
			delta, err := binary.ReadVarint(r)
			var v [8]byte
			if err != nil || r.Len() < 8 {
				return ents, valid, true
			}
			r.Read(v[:])
			e.ns, e.v = base+delta, binary.LittleEndian.Uint64(v[:])
			rec = append(rec, e)
		}
		ents = append(ents, rec...)
		valid += 8 + int(n)
	}
}

// replayCollect runs replayRecords over data as one segment's record
// bytes and collects what it applies.
func replayCollect(data []byte) ([]walRefEntry, int64, uint64, error) {
	var got []walRefEntry
	valid, ids, err := replayRecords(bufio.NewReader(bytes.NewReader(data)), int64(len(data)), func(e *recEntry) {
		got = append(got, walRefEntry{id: e.id, def: e.define, key: string(e.key), ns: e.ns, v: math.Float64bits(e.v)})
	})
	return got, valid, ids, err
}

// withRecordCRCs returns data with the crc of every record whose body
// length fits recomputed, up to the first that does not, so fuzzed bodies
// reach the decoder behind the crc.
func withRecordCRCs(data []byte) []byte {
	out := bytes.Clone(data)
	for p := 0; len(out)-p >= 8; {
		n := int(binary.LittleEndian.Uint32(out[p+4:]))
		if n > len(out)-p-8 {
			break
		}
		binary.LittleEndian.PutUint32(out[p:], crc32.ChecksumIEEE(out[p+4:p+8+n]))
		p += 8 + n
	}
	return out
}

// FuzzWALReplay feeds arbitrary segment record bytes to replayRecords,
// each input as given and again with its record crcs made to match,
// seeded with golden group records and their corruptions. Replay must
// never panic, never allocate past what the segment's bytes account for
// (a hostile body length included), apply exactly the entries of the
// records before the first torn or malformed one — nothing past it — and
// return an error for a crc-valid record that is malformed or names an
// undefined ID, as the reference decoder decides.
func FuzzWALReplay(f *testing.F) {
	one := walRecord(legacyEntries(1))
	many := walRecord(append(legacyEntries(4), laterEntries(4, 100)...))
	e := legacyEntries(2)
	ns := e[1].At.UnixNano()
	refs := append(bytes.Clone(many), finishRecord(appendRecordEntry(appendRecordEntry(beginRecord(nil, ns), 0, nil, ns, ns, 3), 1, nil, ns, ns-5, 4), 0)...)
	f.Add([]byte{})
	f.Add(one)
	f.Add(many)
	f.Add(refs)
	f.Add(refs[:len(refs)-3])                                                          // torn tail
	f.Add(finishRecord(appendRecordEntry(beginRecord(nil, ns), 0, nil, ns, ns, 1), 0)) // undefined ID
	f.Add(finishRecord(appendRecordEntry(beginRecord(nil, ns), 2, &e[0].Key, ns, ns, 1), 0))
	f.Add(finishRecord(appendRecordEntry(beginRecord(nil, ns), 0, &SeriesKey{Dataset: "a", Type: "b", Region: "c", AZ: "d|e"}, ns, ns, 1), 0)) // key does not parse
	hostile := bytes.Clone(one)
	binary.LittleEndian.PutUint32(hostile[4:], math.MaxUint32)
	f.Add(hostile)
	flipped := bytes.Clone(many)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		checkWALReplay(t, data)
		checkWALReplay(t, withRecordCRCs(data))
	})
}

func checkWALReplay(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, valid, ids, err := replayCollect(data)
	runtime.ReadMemStats(&after)
	// The body buffer is at most the input; entries take at least 10
	// bytes of it and 64 of memory here and in replay, doubled by
	// slice growth; keys are copied once.
	if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+32*len(data)); alloc > bound {
		t.Fatalf("replaying %d bytes allocated %d, over %d", len(data), alloc, bound)
	}
	want, wantValid, bad := replayRef(data)
	if (err != nil) != bad {
		t.Fatalf("replay error %v, reference says malformed: %v", err, bad)
	}
	if valid != int64(wantValid) {
		t.Fatalf("replay consumed %d bytes, reference %d", valid, wantValid)
	}
	if len(got) != len(want) {
		t.Fatalf("replay applied %d entries, reference %d", len(got), len(want))
	}
	defs := uint64(0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: replay applied %+v, reference %+v", i, got[i], want[i])
		}
		if want[i].def {
			defs++
		}
	}
	if ids != defs {
		t.Fatalf("replay reports %d IDs defined, the applied entries define %d", ids, defs)
	}
	// Nothing past the valid prefix counts: replaying the prefix alone
	// applies the same entries, cleanly.
	again, againValid, _, err := replayCollect(data[:valid])
	if err != nil || againValid != valid || len(again) != len(got) {
		t.Fatalf("replaying the %d-byte valid prefix: %d entries, %d bytes, err %v; want %d entries", valid, len(again), againValid, err, len(got))
	}
}
