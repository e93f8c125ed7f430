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
	cur, _ := json.Marshal(manifest{
		Version: manifestVersion, WALSeq: 7, Checkpoint: checkpointName(4), CheckpointSeq: 4,
		Blocks: []uint64{1, 3}, BlockSeq: 3,
	})
	f.Add(cur)
	f.Add([]byte(`{"version":5,"walSeq":1}`))                        // per-point WAL records: must be rejected
	f.Add([]byte(`{"version":4,"epoch":1,"segments":2,"walSeq":1}`)) // per-shard chains: must be rejected
	f.Add([]byte(`{"version":3,"segments":1,"shards":[{"offset":0,"segs":[{"seq":1,"base":0}]}]}`))
	f.Add([]byte(`{"version":9,"walSeq":1,"segments":1000000000000}`))
	f.Add([]byte(`{"version":1,"segments":3,"offsets":[0]}`))
	f.Add([]byte(`{"version":9,"walSeq":1,"checkpoint":"../escape"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"version":9,"walSeq":0}`))
	f.Add([]byte(`{"version":9,"walSeq":2,"epoch":1}`))
	f.Add([]byte(`{"version":6,"walSeq":1}`)) // unit-free block files: must be rejected
	f.Add([]byte(`{"version":7,"walSeq":1}`)) // XOR-only block values: must be rejected
	f.Add([]byte(`{"version":8,"walSeq":1}`)) // 8-byte WAL values: must be rejected
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

// refUnit computes m·10^e for decodeBlockRef by repeated
// multiplication, reporting whether it fits 64 bits.
func refUnit(m, e uint64) (uint64, bool) {
	for ; e > 0; e-- {
		if m > math.MaxUint64/10 {
			return 0, false
		}
		m *= 10
	}
	return m, true
}

// refPow computes 10^e for the reference codec by repeated
// multiplication, exact in a float64 for every e up to 22.
func refPow(e int) float64 {
	p := 1.0
	for ; e > 0; e-- {
		p *= 10
	}
	return p
}

// refMantissa is a value's mantissa at scale 10^e as the block format
// defines it: v·10^e rounded half to even, when that lies within
// ±(2^53-1) and divides back to v bit for bit.
func refMantissa(v float64, e int) (int64, bool) {
	x := math.RoundToEven(v * refPow(e))
	if math.IsNaN(x) || x > 1<<53-1 || x < -(1<<53-1) {
		return 0, false
	}
	m := int64(x)
	return m, math.Float64bits(float64(m)/refPow(e)) == math.Float64bits(v)
}

// readBucketRef reads one bucketed field: a prefix of up to five ones,
// ended by a zero below five, then the payload its count of ones selects
// from widths.
func readBucketRef(r *bitReader, widths []uint) (uint64, error) {
	ones := 0
	for ones < 5 {
		bit, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if !bit {
			break
		}
		ones++
	}
	return r.readBits(widths[ones])
}

// decodeBlockRef is a bit-at-a-time block decoder, kept as the
// differential oracle: every input must make it and decodeBlock error
// with the same message, or both return identical samples.
func decodeBlockRef(data []byte, count int) ([]sample, error) {
	if count < 1 || count > maxBlockPoints {
		return nil, fmt.Errorf("tsdb: block point count %d out of range", count)
	}
	if len(data) > maxBlockBytes {
		return nil, fmt.Errorf("tsdb: block length %d out of range", len(data))
	}
	r := bitReader{data: data}
	pts := make([]sample, 0, count)
	var prevT int64
	var delta, unit uint64
	var prevBits uint64
	prevLead, prevSig := uint8(0xff), uint8(0)
	scale, prevM := scaleXOR, int64(0)
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
			if count == 1 {
				break
			}
			// The time unit: '0' for 1, else '1' | 5-bit e | 6-bit n-1 |
			// n-bit mantissa.
			unit = 1
			wide, err := r.readBit()
			if err != nil {
				return nil, err
			}
			if wide {
				e, err := r.readBits(5)
				if err != nil {
					return nil, err
				}
				n, err := r.readBits(6)
				if err != nil {
					return nil, err
				}
				m, err := r.readBits(uint(n) + 1)
				if err != nil {
					return nil, err
				}
				if m == 0 {
					return nil, errors.New("tsdb: block time unit 0 out of range")
				}
				u, ok := refUnit(m, e)
				if !ok {
					return nil, errors.New("tsdb: block time unit overflows")
				}
				unit = u
			}
			// The value mode: '0' for XOR, else '1' | 5-bit scale e.
			scaled, err := r.readBit()
			if err != nil {
				return nil, err
			}
			if scaled {
				e, err := r.readBits(5)
				if err != nil {
					return nil, err
				}
				if e > scaleMax {
					return nil, errors.New("tsdb: block value scale out of range")
				}
				scale = int(e)
				m, ok := refMantissa(math.Float64frombits(prevBits), scale)
				if !ok {
					return nil, errors.New("tsdb: block first value has no mantissa at its scale")
				}
				prevM = m
			}
			continue
		}
		// Timestamp: the dod's bucket.
		z, err := readBucketRef(&r, []uint{0, 7, 16, 32, 48, 64})
		if err != nil {
			return nil, err
		}
		delta += uint64(unzigzag(z))
		if scale != scaleXOR {
			// Value, scaled mode: the mantissa's zigzagged delta in a
			// bucket of up to five ones.
			z, err := readBucketRef(&r, []uint{0, 4, 8, 16, 32, 64})
			if err != nil {
				return nil, err
			}
			prevM += unzigzag(z)
			if prevM > 1<<53-1 || prevM < -(1<<53-1) {
				return nil, errors.New("tsdb: block value mantissa overflows")
			}
			prevBits = math.Float64bits(float64(prevM) / refPow(scale))
		} else if bit, err := r.readBit(); err != nil {
			return nil, err
		} else if bit {
			// Value, XOR mode.
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
		// The step is delta units; shifting by 2^63 maps int64 order onto
		// uint64 order, so the sum overflows exactly when it carries.
		if delta > math.MaxUint64/unit {
			return nil, errors.New("tsdb: block timestamp overflows")
		}
		sum, carry := bits.Add64(uint64(prevT)^1<<63, delta*unit, 0)
		if carry != 0 {
			return nil, errors.New("tsdb: block timestamp overflows")
		}
		prevT = int64(sum ^ 1<<63)
		pts = append(pts, sample{ns: prevT, v: math.Float64frombits(prevBits)})
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

// bitWriterRef is a bit-at-a-time writer, and encodeBlockRef is
// encodeBlock over it with a plain GCD, a plain scale search and the
// value mode chosen by writing both: the oracle that holds the encoder
// to byte-identical output.
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

// bitLen is how many bits w holds.
func (w *bitWriterRef) bitLen() int { return 8*len(w.data) - int(w.free) }

// writeBucketRef writes z in the narrowest bucket of widths that holds
// it: as many ones as the bucket's rank, a zero below rank five, then
// the payload.
func (w *bitWriterRef) writeBucketRef(z uint64, widths []uint) {
	k := 0
	for k < 5 && widths[k] < 64 && z >= 1<<widths[k] {
		k++
	}
	for range k {
		w.writeBit(true)
	}
	if k < 5 {
		w.writeBit(false)
	}
	w.writeBits(z, widths[k])
}

// refScale returns the smallest scale up to scaleMax at which every value
// of pts has a mantissa, or scaleXOR.
func refScale(pts []sample) int {
	for e := 0; e <= scaleMax; e++ {
		all := true
		for _, p := range pts {
			if _, ok := refMantissa(p.v, e); !ok {
				all = false
				break
			}
		}
		if all {
			return e
		}
	}
	return scaleXOR
}

// encodeBlockRef writes pts in both value modes, scaled mode where
// refScale allows it, and keeps the shorter stream, XOR mode on a tie.
func encodeBlockRef(pts []sample) []byte {
	w := encodeBlockRefMode(pts, scaleXOR)
	if e := refScale(pts); len(pts) > 1 && e != scaleXOR {
		if s := encodeBlockRefMode(pts, e); s.bitLen() < w.bitLen() {
			w = s
		}
	}
	return w.data
}

// encodeBlockRefMode writes pts with its values in the given mode:
// scaleXOR, or scaled mode at that exponent, where every value of pts
// has a mantissa.
func encodeBlockRefMode(pts []sample, scale int) bitWriterRef {
	var w bitWriterRef
	var unit uint64
	for i := 1; i < len(pts); i++ {
		a, b := unit, uint64(pts[i].ns-pts[i-1].ns)
		for b != 0 {
			a, b = b, a%b
		}
		unit = a
	}
	if unit == 0 {
		unit = 1
	}
	var prevT int64
	var prevDelta, prevBits uint64
	var prevM int64
	prevLead, prevSig := uint8(0xff), uint8(0)
	for i, p := range pts {
		t := p.ns
		v := math.Float64bits(p.v)
		if i == 0 {
			w.writeBits(uint64(t), 64)
			w.writeBits(v, 64)
			if len(pts) > 1 {
				if unit == 1 {
					w.writeBit(false)
				} else {
					m, e := unit, uint64(0)
					for e < 19 && m%10 == 0 {
						m, e = m/10, e+1
					}
					n := uint(bits.Len64(m))
					w.writeBit(true)
					w.writeBits(e, 5)
					w.writeBits(uint64(n-1), 6)
					w.writeBits(m, n)
				}
				if scale == scaleXOR {
					w.writeBit(false)
				} else {
					w.writeBit(true)
					w.writeBits(uint64(scale), 5)
					prevM, _ = refMantissa(p.v, scale)
				}
			}
			prevT, prevBits = t, v
			continue
		}
		delta := uint64(t-prevT) / unit
		dod := int64(delta - prevDelta)
		prevT, prevDelta = t, delta
		w.writeBucketRef(zigzag(dod), []uint{0, 7, 16, 32, 48, 64})
		if scale != scaleXOR {
			m, _ := refMantissa(p.v, scale)
			w.writeBucketRef(zigzag(m-prevM), []uint{0, 4, 8, 16, 32, 64})
			prevM = m
			continue
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
	return w
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
	// Half the trials step in whole units: a collector's cadences, odd
	// and power-of-two units, and a large one.
	units := []int64{7, 1 << 30, 1e9, 600e9, 3 << 50}
	for trial := 0; trial < 2000; trial++ {
		pts := make([]sample, 1+rng.Intn(300))
		ns, step := int64(rng.Uint64()>>2), int64(60e9)
		unit := int64(0)
		if trial%2 == 0 {
			unit = units[rng.Intn(len(units))]
			ns = int64(rng.Uint64() >> 8)
		}
		v := math.Float64bits(float64(rng.Intn(10)))
		for i := range pts {
			pts[i] = sample{ns: ns, v: math.Float64frombits(v)}
			switch {
			case unit != 0:
				step = unit * int64(rng.Intn(8))
			case rng.Intn(8) == 0:
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

// TestUnitDivider holds the divide-free quotient and divisibility test
// to / and % for units of every shape and dividends on and off their
// multiples.
func TestUnitDivider(t *testing.T) {
	rng := simrand.New(12).Stream("divider")
	units := []uint64{1, 2, 3, 7, 10, 1 << 40, 1e9, 600e9, 3 << 50, math.MaxUint64, math.MaxUint64 - 1, 1 << 63}
	for i := 0; i < 64; i++ {
		units = append(units, rng.Uint64()>>uint(rng.Intn(64))|1<<uint(rng.Intn(3)))
	}
	for _, u := range units {
		div := newUnitDivider(u)
		for i := 0; i < 2000; i++ {
			q := rng.Uint64() >> uint(rng.Intn(65))
			if i%2 == 0 && u > 1 {
				q %= math.MaxUint64/u + 1 // no wrap: x stays a true multiple
			}
			x := q * u
			if i%3 == 0 {
				x += rng.Uint64() % u
			}
			if got, want := div.divides(x), x%u == 0; got != want {
				t.Fatalf("unit %d: divides(%d) = %v, want %v", u, x, got, want)
			}
			if x%u == 0 && div.quo(x) != x/u {
				t.Fatalf("unit %d: quo(%d) = %d, want %d", u, x, div.quo(x), x/u)
			}
		}
	}
}

// TestBlockValueModeProperty encodes random streams of the value shapes a
// store holds — integer steps, halves, six-decimal prices and
// full-mantissa prices like the simulator's od × frac — salted with -0.0,
// NaN payloads, ±Inf, subnormals and ±2^53. Every block must match the
// reference encoder byte for byte, decode bit for bit with both decoders,
// and be no longer than its XOR-mode stream: the XOR-only encoding plus
// the one-bit mode field. Unsalted integer, half and six-decimal blocks
// must mostly take scaled mode.
func TestBlockValueModeProperty(t *testing.T) {
	rng := simrand.New(47).Stream("value-mode")
	special := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Copysign(0, -1)
		case 1: // a NaN with a random payload and sign
			return math.Float64frombits(0x7ff0000000000001 | rng.Uint64()&0x800fffffffffffff)
		case 2:
			return math.Inf(1 - 2*rng.Intn(2))
		case 3: // a subnormal
			return math.Float64frombits(rng.Uint64() & 0x800fffffffffffff)
		case 4:
			return float64(1-2*rng.Intn(2)) * (1 << 53)
		default:
			return float64(1-2*rng.Intn(2)) * maxMantissa
		}
	}
	ods := []float64{0.0832, 0.192, 0.384, 1.536, 4.608}
	const kinds = 4
	var multi, scaled [kinds]int
	for trial := 0; trial < 2000; trial++ {
		kind, salted := trial%kinds, trial%3 == 0
		pts := make([]sample, 1+rng.Intn(300))
		ns, v := t0.UnixNano(), float64(1+rng.Intn(10))
		for i := range pts {
			switch kind {
			case 0: // integer steps
				v += float64(rng.Intn(7) - 3)
			case 1: // halves
				v = 1 + float64(rng.Intn(5))/2
			case 2: // six-decimal prices
				v = float64(int64(rng.Intn(2e7))-1e6) / 1e6
			default: // full-mantissa prices
				v = ods[rng.Intn(len(ods))] * rng.Float64()
			}
			pts[i] = sample{ns: ns, v: v}
			if salted && rng.Intn(20) == 0 {
				pts[i].v = special()
			}
			ns += 600e9 * int64(rng.Intn(4))
		}
		checkEncoderMatchesRef(t, pts)
		eb := encodeBlock(pts)
		got := checkDecodersAgree(t, eb.data, len(pts))
		for i, p := range pts {
			if got[i].ns != p.ns || math.Float64bits(got[i].v) != math.Float64bits(p.v) {
				t.Fatalf("trial %d point %d: decoded %v (%#x), want %v (%#x)", trial, i, got[i], math.Float64bits(got[i].v), p, math.Float64bits(p.v))
			}
		}
		xor := encodeBlockRefMode(pts, scaleXOR)
		if len(eb.data) > (xor.bitLen()+7)/8 {
			t.Fatalf("trial %d: %d bytes, over the XOR-mode stream's %d bits", trial, len(eb.data), xor.bitLen())
		}
		if len(pts) > 1 && !salted {
			multi[kind]++
			if e := refScale(pts); e != scaleXOR && bytes.Equal(eb.data, encodeBlockRefMode(pts, e).data) {
				scaled[kind]++
			}
		}
	}
	for kind, name := range []string{"integer", "half", "six-decimal"} {
		if 2*scaled[kind] < multi[kind] {
			t.Errorf("%s blocks: %d of %d in scaled mode, want most", name, scaled[kind], multi[kind])
		}
	}
	t.Logf("blocks in scaled mode by shape (integer, half, six-decimal, full-mantissa): %v of %v", scaled, multi)
}

// TestScaledMantissa pins which values have a mantissa at a scale.
func TestScaledMantissa(t *testing.T) {
	for _, c := range []struct {
		v    float64
		e    int
		m    int64
		fits bool
	}{
		{3, 0, 3, true},
		{2.5, 0, 0, false},
		{2.5, 1, 25, true},
		{2.5, 2, 250, true},
		{0.123456, 6, 123456, true},
		{0.123456, 5, 0, false},
		{-3.5, 1, -35, true},
		{maxMantissa, 0, maxMantissa, true},
		{-maxMantissa, 0, -maxMantissa, true},
		{1 << 53, 0, 0, false},
		{-(1 << 53), 0, 0, false},
		{maxMantissa, 1, 0, false},
		{math.Nextafter(0.3, 1), 17, 0, false},
		{math.Copysign(0, -1), 0, 0, false},
		{0, 0, 0, true},
		{math.NaN(), 0, 0, false},
		{math.Inf(1), 0, 0, false},
		{math.Inf(-1), 3, 0, false},
		{5e-324, 18, 0, false},
	} {
		m, ok := scaledMantissa(c.v, scalePow[c.e])
		if ok != c.fits || ok && m != c.m {
			t.Errorf("scaledMantissa(%v, 1e%d) = %d, %v; want %d, %v", c.v, c.e, m, ok, c.m, c.fits)
		}
		if refM, refOK := refMantissa(c.v, c.e); refOK != ok || ok && refM != m {
			t.Errorf("refMantissa(%v, %d) = %d, %v; scaledMantissa %d, %v", c.v, c.e, refM, refOK, m, ok)
		}
	}
}

// FuzzBlockDecode feeds hostile compressed blocks — truncated,
// bit-flipped, or arbitrary bytes, with an adversarial point count — to
// the block decoder that cold reads trust. Corrupt input must return an
// error: never panic, never over-allocate, never decode out-of-order
// or wrapped timestamps. Input that does decode must survive a full
// re-encode / re-decode round trip bit-exactly at the point level. (The
// bitstream itself is not canonical: a hostile encoder may pick a wider
// dod bucket or a smaller time unit than needed, which decodes fine but
// re-encodes narrower.) Every input is also decoded by decodeBlockRef,
// and the two must agree.
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
	// Time units: all-equal timestamps (unit 1), a 10-minute cadence
	// (unit 600 s), unit 1 from one nanosecond of jitter, and the hostile
	// units and steps decodeBlock must refuse rather than wrap.
	f.Add(fuzzBlockSeed(6, 0, func(i int) float64 { return float64(i) }), 6, noHorizon)
	f.Add(fuzzBlockSeed(32, 10*time.Minute, func(i int) float64 { return float64(i % 3) }), 32, mid)
	jitter := fuzzBlockPoints(32, 10*time.Minute, func(i int) float64 { return float64(i % 3) })
	jitter[7].ns++
	f.Add(encodeBlock(jitter).data, 32, mid)
	for _, c := range hostileUnitBlocks() {
		f.Add(c.data, c.count, noHorizon)
	}
	// Value modes: scaled blocks of halves and of six-decimal prices, an
	// XOR block of full-mantissa prices, and the hostile scales and
	// mantissa deltas decodeBlock must refuse, an exponent past the table
	// and deltas that wrap the mantissa among them.
	f.Add(fuzzBlockSeed(40, 10*time.Minute, func(i int) float64 { return float64(i%6) / 2 }), 40, mid)
	f.Add(fuzzBlockSeed(40, 10*time.Minute, func(i int) float64 { return float64(123456+i*i) / 1e6 }), 40, noHorizon)
	f.Add(fuzzBlockSeed(40, 10*time.Minute, func(i int) float64 { return 0.0832 * (0.31 + float64(i)/97) }), 40, mid)
	for _, c := range hostileValueBlocks() {
		f.Add(c.data, c.count, noHorizon)
	}

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
// fuzzer with: archive-shaped blocks, dod jumps in a unit of their own
// and in unit 1 (between them every dod bucket width), all-equal
// timestamps, steps wider than int64, a 64-significant-bit value window
// that is then reused, and one point.
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
	// Dod jumps: after a 1-minute cadence, one jump, then the cadence
	// again (a second dod of the same size back). Each block's unit is
	// the GCD of a minute and the jump: for the first four a divisor of
	// the jump; for the last four, prime to a minute, 1, so their dods
	// reach every bucket counted in nanoseconds (the first delta, a
	// minute, lands in the 48-bit one).
	for _, jump := range []time.Duration{10 * time.Microsecond, time.Second, time.Hour, 200 * 24 * time.Hour,
		7, 1001, 1000001, 200*24*time.Hour + 1} {
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
	equal := make([]sample, 6)
	for i := range equal {
		equal[i] = sample{ns: t0.UnixNano(), v: float64(i)}
	}
	out = append(out, shape{"all-equal", equal})
	// Steps past MaxInt64: the store's range spans 584 years, an int64
	// 292.
	lo, hi := minInstant.UnixNano(), maxInstant.UnixNano()
	out = append(out, shape{"span", []sample{{ns: lo, v: 1}, {ns: hi, v: 2}}})
	out = append(out, shape{"span-unit-1", []sample{{ns: lo, v: 1}, {ns: lo + 1, v: 2}, {ns: hi, v: 3}}})
	// A unit of 10^19 ns, the widest exponent, and a step past MaxInt64.
	out = append(out, shape{"unit-1e19", []sample{{ns: lo, v: 1}, {ns: int64(uint64(lo) + 1e19), v: 2}}})
	wide := []uint64{0, 0x8000000000000001, 0x0000000000000001, 0x8000000000000000, 0x8000000000000001}
	pts := make([]sample, len(wide))
	for i, b := range wide {
		pts[i] = sample{ns: t0.Add(time.Duration(i) * time.Second).UnixNano(), v: math.Float64frombits(b)}
	}
	out = append(out, shape{"window-64", pts})
	// Scaled values on a 10-minute cadence: halves, six decimals with
	// negative steps, the widest mantissas, and one mantissa delta per
	// value bucket.
	scaled := func(name string, vs ...float64) {
		pts := make([]sample, len(vs))
		for i, v := range vs {
			pts[i] = sample{ns: t0.Add(time.Duration(i) * 10 * time.Minute).UnixNano(), v: v}
		}
		out = append(out, shape{name, pts})
	}
	scaled("halves", 1, 1.5, 3, 2.5, 2.5, 1, 2, 1.5)
	scaled("six-decimals", 0.123456, 0.123457, 0.1, 12.000001, -3.5, -3.500001)
	scaled("max-mantissa", maxMantissa, -maxMantissa, 1, maxMantissa)
	// Small steps after the wide ones keep the block in scaled mode.
	scaled("value-buckets", 0, 0, 3, 100, 30100, 1<<30+30100, 1<<52, -(1 << 52), 7, 1, 8, 2, 9, 3, 10, 4, 1, 5, 2, 6)
	out = append(out, shape{"single", []sample{{ns: t0.UnixNano(), v: 3.25}}})
	return out
}

// TestBlockDecodeTruncationPrefixes decodes every byte prefix of every
// decodeShapeCases block with both decoders: they must agree on each
// (same error, or same points), and the full block must round-trip.
func TestBlockDecodeTruncationPrefixes(t *testing.T) {
	buckets, valueBucketsSeen := map[uint]bool{}, map[uint]bool{}
	bucketOf := func(z uint64, widths []uint) uint {
		for _, w := range widths {
			if z < 1<<w || w == 64 {
				return w
			}
		}
		panic("no bucket")
	}
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
		unit, _ := blockUnit(c.pts)
		var prev uint64
		for i := 1; i < len(c.pts); i++ {
			d := uint64(c.pts[i].ns-c.pts[i-1].ns) / unit
			buckets[bucketOf(zigzag(int64(d-prev)), dodBuckets.widths[:])] = true
			prev = d
		}
		// The value buckets of blocks in scaled mode.
		if e := refScale(c.pts); e != scaleXOR && bytes.Equal(eb.data, encodeBlockRefMode(c.pts, e).data) {
			var prevM int64
			for i, p := range c.pts {
				m, _ := refMantissa(p.v, e)
				if i > 0 {
					valueBucketsSeen[bucketOf(zigzag(m-prevM), valueBuckets.widths[:])] = true
				}
				prevM = m
			}
		}
	}
	for _, w := range dodBuckets.widths {
		if !buckets[w] {
			t.Errorf("no case exercises the %d-bit dod bucket", w)
		}
	}
	for _, w := range valueBuckets.widths {
		if !valueBucketsSeen[w] {
			t.Errorf("no scaled case exercises the %d-bit value bucket", w)
		}
	}
}

// hostileBlock is a hand-written block stream and its point count.
type hostileBlock struct {
	name  string
	data  []byte
	count int
	want  error
}

// hostileUnitBlocks are streams no encoder writes, whose time unit or
// steps decodeBlock must refuse as corruption: each starts with point 0
// at t (value 0), then the unit field, then one or two points whose
// values repeat.
func hostileUnitBlocks() []hostileBlock {
	block := func(t int64, unit func(w *bitWriter), dods ...uint64) []byte {
		var w bitWriter
		w.writeBits(uint64(t), 64)
		w.writeBits(0, 64)
		unit(&w)
		w.writeBits(0, 1) // XOR mode
		for _, z := range dods {
			w.writeBits(0b11111, 5)
			w.writeBits(z, 64)
			w.writeBits(0, 1) // value repeats
		}
		return w.bytes()
	}
	// wide writes a unit field m·10^e with an n-bit mantissa.
	wide := func(e, n, m uint64) func(w *bitWriter) {
		return func(w *bitWriter) {
			w.writeBits(1<<11|e<<6|(n-1), 12)
			w.writeBits(m, uint(n))
		}
	}
	one := func(w *bitWriter) { w.writeBits(0, 1) }
	base := t0.UnixNano()
	return []hostileBlock{
		{"unit-zero", block(base, wide(0, 1, 0), zigzag(1)), 2, errBlockUnitZero},
		{"unit-past-64-bits", block(base, wide(19, 64, math.MaxUint64), zigzag(1)), 2, errBlockUnitOverflow},
		{"unit-exponent-past-19", block(base, wide(20, 1, 1), zigzag(1)), 2, errBlockUnitOverflow},
		// 10^19 units of 2: the product needs 65 bits.
		{"delta-times-unit", block(base, wide(19, 1, 1), zigzag(2)), 2, errBlockTimeOverflow},
		// A step that fits 64 bits but carries t past MaxInt64.
		{"running-timestamp", block(math.MaxInt64-5, one, zigzag(10)), 2, errBlockTimeOverflow},
		// A "negative" delta is 2^64-3 units: wrapped, it would read as
		// t-3; refused, it cannot pass as a timestamp that ascends.
		{"negative-delta", block(base, one, zigzag(-3)), 2, errBlockTimeOverflow},
		// The second step overflows although the first fits.
		{"second-step", block(math.MaxInt64-30, one, zigzag(10), zigzag(20)), 3, errBlockTimeOverflow},
	}
}

// hostileValueBlocks are streams no encoder writes, whose value scale or
// mantissas decodeBlock must refuse as corruption: each starts with point
// 0 at t0 valued v0, unit 1 and scaled mode at scale e, then one point
// per mantissa delta, each at t0 again and in the 64-bit bucket.
func hostileValueBlocks() []hostileBlock {
	block := func(v0 float64, e uint64, deltas ...int64) []byte {
		var w bitWriter
		w.writeBits(uint64(t0.UnixNano()), 64)
		w.writeBits(math.Float64bits(v0), 64)
		w.writeBits(0, 1)      // unit 1
		w.writeBits(1<<5|e, 6) // scaled mode
		for _, d := range deltas {
			w.writeBits(0, 1) // dod 0
			w.writeBits(0b11111, 5)
			w.writeBits(zigzag(d), 64)
		}
		return w.bytes()
	}
	return []hostileBlock{
		{"scale-past-table", block(1, scaleMax+1, 1), 2, errBlockScaleRange},
		{"scale-31", block(1, 31, 1), 2, errBlockScaleRange},
		// 0.1+0.2 in float64 arithmetic: one decimal place does not hold it.
		{"first-value-off-scale", block(math.Nextafter(0.3, 1), 1, 1), 2, errBlockScaleFirst},
		{"first-value-negative-zero", block(math.Copysign(0, -1), 0, 1), 2, errBlockScaleFirst},
		{"first-value-nan", block(math.NaN(), 0, 1), 2, errBlockScaleFirst},
		{"first-value-inf", block(math.Inf(-1), 0, 1), 2, errBlockScaleFirst},
		{"first-value-2^53", block(1<<53, 0, -1), 2, errBlockScaleFirst},
		{"mantissa-past-2^53", block(0, 0, maxMantissa+1), 2, errBlockMantissaOverflow},
		{"mantissa-below-minus-2^53", block(-1, 0, -maxMantissa), 2, errBlockMantissaOverflow},
		// Deltas that wrap the int64 sum: 5 + MaxInt64 wraps to a large
		// negative mantissa, -5 + MinInt64 to a large positive one.
		{"mantissa-wraps", block(5, 0, math.MaxInt64), 2, errBlockMantissaOverflow},
		{"mantissa-wraps-negative", block(-5, 0, math.MinInt64), 2, errBlockMantissaOverflow},
		// The second delta overflows although the first fits.
		{"second-delta", block(0, 3, maxMantissa, 1), 3, errBlockMantissaOverflow},
	}
}

// TestBlockDecodeRefusesWraps decodes hostileUnitBlocks and
// hostileValueBlocks with both decoders, whole and through every horizon
// up to the point that overflows: each must fail with its own error,
// never return a timestamp or a mantissa that wrapped.
func TestBlockDecodeRefusesWraps(t *testing.T) {
	for _, c := range append(hostileUnitBlocks(), hostileValueBlocks()...) {
		t.Run(c.name, func(t *testing.T) {
			checkDecodersAgree(t, c.data, c.count)
			if _, err := decodeBlock(nil, c.data, c.count, noHorizon); !errors.Is(err, c.want) {
				t.Fatalf("decode = %v, want %v", err, c.want)
			}
			// A window that ends at point 0 never reads the unit or the
			// value mode.
			if got, err := decodeBlock(nil, c.data, c.count, math.MinInt64); err != nil || len(got) != 1 {
				t.Fatalf("window decode through point 0 = (%d points, %v)", len(got), err)
			}
		})
	}
}

// fuzzCheckpointSeed builds a valid checkpoint file to seed the corpus.
func fuzzCheckpointSeed(seriesN, pointsN int) []byte {
	db, _ := openTuned("", tuning{shards: 4})
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

// checkpointFileOf writes a checkpoint file of one series held in blocks.
func checkpointFileOf(blocks ...encodedBlock) []byte {
	var buf bytes.Buffer
	_ = writeBlockFileTo(&buf, []blockSealEntry{{canon: "sps|m5.large|us-east-1|us-east-1a", blocks: blocks}}, nil)
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
	// Checkpoints of scaled blocks (halves, six-decimal prices), of an
	// XOR block, and of blocks whose value scale or mantissas the decoder
	// refuses behind valid CRCs.
	f.Add(checkpointFileOf(encodeBlock(fuzzBlockPoints(12, 10*time.Minute, func(i int) float64 { return 1 + float64(i%5)/2 }))))
	f.Add(checkpointFileOf(encodeBlock(fuzzBlockPoints(12, 10*time.Minute, func(i int) float64 { return float64(52000+i*37) / 1e6 }))))
	f.Add(checkpointFileOf(encodeBlock(fuzzBlockPoints(12, 10*time.Minute, func(i int) float64 { return 0.0832 * (0.31 + float64(i)/97) }))))
	for _, c := range hostileValueBlocks() {
		f.Add(checkpointFileOf(encodedBlock{data: c.data, count: uint32(c.count), minAt: t0.UnixNano(), maxAt: t0.UnixNano()}))
	}

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
// record is torn (short, with a body length that is no uvarint of at most
// five bytes or is longer than what is left, failing its crc). It returns
// every entry of the records before that point, how many bytes they take,
// and whether the record that follows is crc-valid but malformed:
// undecodable, naming an ID out of order or undefined, defining a series
// by a key that is not four "|"-separated fields with the first three
// non-empty, or holding a value of an unknown form or a scale past 18.
func replayRef(data []byte) (ents []walRefEntry, valid int, bad bool) {
	next, base := uint64(0), int64(0)
	for {
		rest := data[valid:]
		if len(rest) < 5 {
			return ents, valid, false
		}
		n, lenLen := binary.Uvarint(rest[4:min(len(rest), 9)])
		if lenLen <= 0 || n > uint64(len(rest)-4-lenLen) {
			return ents, valid, false
		}
		head := 4 + lenLen
		if crc32.ChecksumIEEE(rest[4:head+int(n)]) != binary.LittleEndian.Uint32(rest) {
			return ents, valid, false
		}
		r := bytes.NewReader(rest[head : head+int(n)])
		var rec []walRefEntry
		delta, err := binary.ReadVarint(r)
		if err != nil {
			return ents, valid, true
		}
		recBase := base + delta
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
			field, err := binary.ReadUvarint(r)
			if err != nil {
				return ents, valid, true
			}
			e.ns = recBase + (int64(field>>3) ^ -int64(field>>2&1))
			switch field & 3 {
			case 0, 1:
				exp := byte(0)
				if field&3 == 1 {
					if exp, err = r.ReadByte(); err != nil || exp > 18 {
						return ents, valid, true
					}
				}
				m, err := binary.ReadVarint(r)
				if err != nil {
					return ents, valid, true
				}
				e.v = math.Float64bits(float64(m) / math.Pow10(int(exp)))
			case 2:
				var v [8]byte
				if r.Len() < 8 {
					return ents, valid, true
				}
				r.Read(v[:])
				e.v = binary.LittleEndian.Uint64(v[:])
			default:
				return ents, valid, true
			}
			rec = append(rec, e)
		}
		ents = append(ents, rec...)
		valid += head + int(n)
		base = recBase
	}
}

// FuzzWALValue encodes any finite float64, -0 included, as one WAL entry
// at a fuzzed delta from its record's base and decodes it back: the value
// must come back bit for bit and the timestamp exactly, the value must
// never take more than the 8 bytes of its raw form, and the entry never
// more than the version-8 entry did (uvarint ID, varint delta, 8-byte
// value) but for the one byte the form's two bits can add to a timestamp
// field — none at the record's tick.
func FuzzWALValue(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -7, 0.1, 2.5, 0.0416, 1e-18, 1.5e-17, 1.23456789012345e-4,
		0.1234567890123456, math.Pi, 1<<53 - 1, 1 << 53, 1<<53 + 2, 900719925474099.1, 5e-324, math.MaxFloat64, -math.MaxFloat64} {
		f.Add(math.Float64bits(v), int64(0))
		f.Add(math.Float64bits(v), int64(-600e9))
	}
	f.Add(math.Float64bits(1), int64(math.MinInt64))
	f.Add(math.Float64bits(1), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, vbits uint64, delta int64) {
		v := math.Float64frombits(vbits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		if zigzag(delta) >= walDeltaLimit {
			delta >>= walFormBits
		}
		base := t0.UnixNano()
		k := SeriesKey{Dataset: "d", Type: "t", Region: "r"}
		rec := finishRecord(appendRecordEntry(beginRecord(nil, 0, base), 0, &k, base, base+delta, v), 0)
		got, valid, _, err := replayCollect(rec)
		if err != nil || valid != int64(len(rec)) || len(got) != 1 {
			t.Fatalf("%v at delta %d: replayed %d entries of %d bytes out of %d, err %v", v, delta, len(got), valid, len(rec), err)
		}
		if got[0].v != vbits || got[0].ns != base+delta {
			t.Fatalf("%v at delta %d: came back as %v at delta %d", v, delta, math.Float64frombits(got[0].v), got[0].ns-base)
		}
		for _, d := range []int64{0, delta} {
			ent := appendRecordEntry(nil, 0, nil, base, base+d, v)
			field := len(binary.AppendUvarint(nil, zigzag(d)<<walFormBits))
			old := 1 + len(binary.AppendVarint(nil, d)) + 8
			if valueBytes := len(ent) - 1 - field; valueBytes > 8 {
				t.Fatalf("%v: the value takes %d bytes", v, valueBytes)
			}
			if grown := field - len(binary.AppendVarint(nil, d)); len(ent) > old+grown || (d == 0 && len(ent) > old) {
				t.Fatalf("%v at delta %d: entry of %d bytes, the version-8 one %d", v, d, len(ent), old)
			}
		}
	})
}

// replayCollect runs replayRecords over data as one segment's record
// bytes and collects what it applies.
func replayCollect(data []byte) ([]walRefEntry, int64, uint64, error) {
	var got []walRefEntry
	valid, ids, _, err := replayRecords(bufio.NewReader(bytes.NewReader(data)), int64(len(data)), func(e *recEntry) {
		got = append(got, walRefEntry{id: e.id, def: e.define, key: string(e.key), ns: e.ns, v: math.Float64bits(e.v)})
	})
	return got, valid, ids, err
}

// withRecordCRCs returns data with the crc of every record whose body
// length decodes and fits recomputed, up to the first that does not, so
// fuzzed bodies reach the decoder behind the crc.
func withRecordCRCs(data []byte) []byte {
	out := bytes.Clone(data)
	for p := 0; len(out)-p >= 5; {
		n, lenLen := binary.Uvarint(out[p+4 : min(len(out), p+9)])
		if lenLen <= 0 || n > uint64(len(out)-p-4-lenLen) {
			break
		}
		end := p + 4 + lenLen + int(n)
		binary.LittleEndian.PutUint32(out[p:], crc32.ChecksumIEEE(out[p+4:end]))
		p = end
	}
	return out
}

// FuzzWALReplay feeds arbitrary segment record bytes to replayRecords,
// each input as given and again with its record crcs made to match,
// seeded with golden group records — every value form among them — and
// their corruptions: a torn tail, a body length torn inside its varint,
// and a torn record between two whose bases chain across it. Replay must
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
	refs := append(bytes.Clone(many), finishRecord(appendRecordEntry(appendRecordEntry(beginRecord(nil, e[0].At.UnixNano(), ns), 0, nil, ns, ns, 3), 1, nil, ns, ns-5, 4), 0)...)
	f.Add([]byte{})
	f.Add(one)
	f.Add(many)
	f.Add(refs)
	f.Add(refs[:len(refs)-3])                                                             // torn tail
	f.Add(finishRecord(appendRecordEntry(beginRecord(nil, 0, ns), 0, nil, ns, ns, 1), 0)) // undefined ID
	f.Add(finishRecord(appendRecordEntry(beginRecord(nil, 0, ns), 2, &e[0].Key, ns, ns, 1), 0))
	f.Add(finishRecord(appendRecordEntry(beginRecord(nil, 0, ns), 0, &SeriesKey{Dataset: "a", Type: "b", Region: "c", AZ: "d|e"}, ns, ns, 1), 0)) // key does not parse
	hostile := bytes.Clone(one)
	copy(hostile[4:], []byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(hostile)
	flipped := bytes.Clone(many)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	// Every value form: integer (up to the largest mantissa), scaled (the
	// smallest and the largest scale), raw. The key is long enough that
	// the body length takes two bytes.
	long := SeriesKey{Dataset: DatasetPrice, Type: strings.Repeat("x", 64), Region: "r0", AZ: "r0a"}
	forms := beginRecord(nil, 0, ns)
	for i, v := range []float64{7, -1234, 1<<53 - 1, 0.25, 0.0416, 1e-18, math.Pi, math.Copysign(0, -1), math.MaxFloat64, 5e-324, 900719925474099.1} {
		var def *SeriesKey
		if i == 0 {
			def = &long
		}
		forms = appendRecordEntry(forms, 0, def, ns, ns+int64(i), v)
	}
	forms = finishRecord(forms, 0)
	f.Add(forms)
	// Cut inside the two-byte body length.
	if forms[4] < 0x80 {
		f.Fatal("the value-form record's body length takes one byte")
	}
	f.Add(forms[:5])
	// Three records whose bases chain, the middle one torn: replay stops
	// at it, and with its crc recomputed decodes the third from its base.
	chain := bytes.Clone(forms)
	mid := len(chain)
	chain = finishRecord(appendRecordEntry(beginRecord(chain, ns, ns+int64(time.Hour)), 0, nil, ns+int64(time.Hour), ns+int64(time.Hour), 2.5), mid)
	third := len(chain)
	chain = finishRecord(appendRecordEntry(beginRecord(chain, ns+int64(time.Hour), ns-int64(time.Minute)), 0, nil, ns-int64(time.Minute), ns, 0.5), third)
	chain[third-1] ^= 0x40
	f.Add(chain)

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
	// The body buffer is at most the input; entries take at least 3
	// bytes of it (a 1-byte ID, timestamp field and value) and 104 of
	// memory here and in replay, doubled by slice growth; keys are copied
	// once.
	if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+72*len(data)); alloc > bound {
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
