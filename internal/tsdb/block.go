package tsdb

// Compressed immutable block tier (cold storage), and the one encoding of
// points at rest.
//
// A checkpoint seals history older than each series' hot tail into an
// immutable block file, so resident memory is bounded by the unsealed
// points + block cache instead of total history. Sealed points live on disk
// compressed — delta-of-delta timestamps and values as decimal mantissa
// deltas or Gorilla's XOR, in one interleaved bitstream per fixed-size
// block — and
// are decoded on demand, one block at a time: a read whose window ends
// inside a block this process has decoded in full before stops decoding
// at the first point past that end, and only whole decodes enter the
// store's LRU block cache (blockcache.go).
//
// The checkpoint file (checkpoint-<seq>.snap, see wal.go) is the same
// format: each series' unsealed points as blocks of up to maxBlockPoints
// points, which an open decodes whole and validates before anything
// enters a shard. The open then keeps the file's data section in memory
// as those points' blocks, and reads decode them like any block, so one
// point codec serves everything at rest but the WAL and the raw tail.
//
// # File format (blocks-<seq>.blk, checkpoint-<seq>.snap)
//
//	header: 8-byte magic "SLBLOCKS" | u16 version (3; version 1 had no
//	        time unit, version 2 no value mode, see Block encoding)
//	data:   the compressed blocks, back to back, no framing (the index
//	        carries every block's offset/length/CRC)
//	index:  u32 series count | per series:
//	          u16 keyLen | canonical key bytes | u32 block count |
//	          per block: u64 offset | u32 length | u32 point count |
//	                     i64 min unix-nanos | i64 max unix-nanos |
//	                     u32 CRC-32 (IEEE) of the block bytes
//	footer: u64 index offset | u32 index length | u32 index CRC |
//	        8-byte magic "SLBLKIDX"
//
// All integers are little-endian. Series appear in strictly ascending
// canonical key order, a series' blocks appear in time order, and the
// blocks tile the data section in index order, so identical seals encode
// to identical bytes. The file is written once via the atomic
// temp+fsync+rename sequence and never modified afterwards; the MANIFEST
// lists the live block files, and the manifest rename is the commit
// point (see wal.go). Opening a block file parses only its index —
// blocks stay on disk until a read decodes them — so recovery cost is
// O(index), not O(history).
//
// # Block encoding
//
// Each block holds 1..maxBlockPoints points of one series as a single
// bitstream, timestamps and values interleaved per point:
//
//   - point 0: 64 raw bits of unix-nanos, 64 raw bits of the float.
//   - the block's time unit u, only when the block has more than one
//     point: the GCD of its timestamp deltas, or 1 when every delta is 0.
//     '0' for u == 1; else '1' + 5 bits e + 6 bits n-1 + n bits m, with
//     u = m·10^e, e the most factors of ten u has (at most 19) and n the
//     bit length of m.
//   - the block's value mode, after the unit: '0' for XOR mode, or '1' +
//     5 bits e (at most 18) for scaled mode, in which every value v of the
//     block, point 0's too, is float64(m)/10^e bit for bit for a mantissa
//     m = v·10^e rounded half to even with |m| < 2^53. e is the smallest
//     exponent that serves every value; -0.0, NaN and ±Inf serve none.
//   - timestamps i>0: dod = d[i] - d[i-1], where d[i] = (t[i]-t[i-1])/u
//     counts whole units as an unsigned 64-bit number (the first delta's
//     predecessor is 0) and the difference wraps, zigzag-encoded and
//     bucketed: '0' for dod == 0; '10' + 7 bits; '110' + 16 bits;
//     '1110' + 32 bits; '11110' + 48 bits; '11111' + 64 bits.
//   - values i>0, scaled mode: the mantissa's delta m[i] - m[i-1],
//     zigzag-encoded in buckets of the timestamps' shape, narrower: '0';
//     '10' + 4 bits; '110' + 8; '1110' + 16; '11110' + 32; '11111' + 64.
//   - values i>0, XOR mode: xor = bits(v[i]) ^ bits(v[i-1]); '0' when
//     xor == 0; '10' + the meaningful bits reusing the previous
//     leading/sigbits window when it still fits; '11' + 5 bits
//     leading-zero count + 6 bits significant-bit count (64 encodes as 0)
//     + the bits.
//
// A collector samples on a fixed cadence and stores only the samples
// that changed, so every delta is a whole number of ticks: counted in
// ticks, the dods of a change-only series are small and land in the
// 9-bit bucket, where counted in nanoseconds they took 52 bits. No
// timestamp costs more than one bit above the same buckets without a
// unit, even with u == 1. Its values are few-valued decimals — 1–10
// placement scores, interruption-free scores in halves, whole-percent
// savings — whose mantissa deltas fit the 6-bit bucket, where their
// float XORs take 13 to 30 bits. The encoder counts both modes' value
// bits and takes scaled mode only when it is shorter, mode field
// included, so no block is longer than its XOR-only stream plus the one
// mode bit; full-mantissa prices stay in XOR mode.
//
// The encoder writes through a 64-bit accumulator that goes out a word
// at a time; TestBlockEncoderMatchesReference holds it byte for byte to
// a bit-at-a-time writer. The decoder takes the expected point count
// from the (CRC-validated) index and reads the stream through a
// left-aligned 64-bit accumulator refilled a word at a time (zero-padded
// past the end), so fields cost a shift, not a loop over bits. Instead
// of bounds-checking each bit it compares the bits consumed with
// len(data)*8 before trusting what it read, and returns errors on
// truncated or bit-flipped input — never panics, never allocates more
// than maxBlockPoints points. A unit of 0, a unit or a delta·unit
// product past 64 bits, and a running timestamp past the int64 range
// are corruption: the decoder never wraps, so its timestamps ascend by
// construction. So are a value scale past 18, a first value with no
// mantissa at its block's scale and a mantissa sum past ±(2^53-1),
// which a wrapped int64 sum can reach only where the exact one does.
// Each bucketed field costs one lookup of its top five bits in a table
// (buckets.codes) that gives the field's whole length and payload width.
// A decode given a horizon stops after the first point past it, before
// the trailing-data check, so only a decode without one (noHorizon)
// vouches for the whole stream. FuzzBlockDecode holds it to
// that, to prefix agreement between the two, and to agreement with a
// bit-at-a-time reference decoder.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
)

const (
	blockFileMagic = "SLBLOCKS"
	blockIdxMagic  = "SLBLKIDX"
	blockFileVer   = 3
	blockHeaderLen = len(blockFileMagic) + 2
	blockFooterLen = 8 + 4 + 4 + len(blockIdxMagic)
	blockIdxEntLen = 8 + 4 + 4 + 8 + 8 + 4
	// maxBlockPoints bounds one block's point count: the index stores it
	// as u32, and the decoder pre-allocates the result, so a corrupt
	// count must not trigger a huge allocation.
	maxBlockPoints = 1 << 16
	// maxBlockBytes bounds one block's encoded length. The worst case per
	// point is 69 timestamp bits + 77 value bits in XOR mode (69 in scaled
	// mode) ≈ 19 bytes; 32 covers it with slack for the two raw leading
	// values, the time unit (at most 76 bits) and the value mode (6).
	maxBlockBytes = maxBlockPoints*32 + 64
	// maxBlockIndexBytes bounds the index section of one block file
	// (64 MiB, about 1.8 M blocks), so a corrupt footer cannot ask for an
	// absurd allocation.
	maxBlockIndexBytes = 1 << 26
)

func blockFileName(seq uint64) string { return fmt.Sprintf("blocks-%06d.blk", seq) }

// scanBlockFileName parses a block file name's sequence number. Width-free
// for the same reason as scanRotSegName: %06d is a minimum width.
func scanBlockFileName(name string, seq *uint64) bool {
	n, err := fmt.Sscanf(name, "blocks-%d.blk", seq)
	return err == nil && n == 1 && name == blockFileName(*seq)
}

// bitWriter appends bits MSB-first to a byte slice through a left-aligned
// 64-bit accumulator that goes out a big-endian word at a time, the
// writing twin of refillBits. bytes flushes the partial last word, zero
// padded to a byte boundary.
type bitWriter struct {
	data []byte
	acc  uint64 // pending bits, left-aligned
	n    uint   // how many bits of acc are pending, < 64
}

// writeBits writes the low n bits of v, MSB-first. n must be in [0, 64].
func (w *bitWriter) writeBits(v uint64, n uint) {
	if n < 64 {
		v &= 1<<n - 1
	}
	free := 64 - w.n
	if n < free {
		w.acc |= v << (free - n)
		w.n += n
		return
	}
	// The word fills: emit it and keep the n-free bits that did not fit
	// (a shift by 64 yields 0, so a write that fills it exactly keeps none).
	w.data = binary.BigEndian.AppendUint64(w.data, w.acc|v>>(n-free))
	w.n = n - free
	w.acc = v << (64 - w.n)
}

// bytes returns the stream written so far, its last byte zero-padded.
func (w *bitWriter) bytes() []byte {
	for acc, n := w.acc, w.n; n > 0; n -= min(n, 8) {
		w.data = append(w.data, byte(acc>>56))
		acc <<= 8
	}
	w.acc, w.n = 0, 0
	return w.data
}

var errBlockTruncated = errors.New("tsdb: block truncated")

// refillBits tops up a block decoder's bit accumulator: acc holds nacc
// unread stream bits left-aligned, and next is the next byte of data to
// load. It loads a whole big-endian word while 8 bytes remain and single
// bytes near the tail, zero-padding past the end, and returns at least 57
// valid bits. Bits below the top nacc are always zero or the stream's own
// next bits, so OR-ing a reload over them is idempotent. State passes by
// value so the decoder's accumulator stays in registers.
func refillBits(data []byte, acc uint64, nacc uint, next int) (uint64, uint, int) {
	if next+8 <= len(data) {
		acc |= binary.BigEndian.Uint64(data[next:]) >> nacc
		k := (64 - nacc) >> 3
		return acc, nacc + k<<3, next + int(k)
	}
	for ; nacc <= 56; nacc += 8 {
		if next < len(data) {
			acc |= uint64(data[next]) << (56 - nacc)
		}
		next++
	}
	return acc, nacc, next
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encodedBlock is one compressed block staged for a block file write.
type encodedBlock struct {
	data  []byte
	count uint32
	minAt int64
	maxAt int64
}

// pow10 holds 10^e for every e a time unit's field can mean; 10^19 is
// the last power of ten below 2^64.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for e := 1; e < len(p); e++ {
		p[e] = p[e-1] * 10
	}
	return p
}()

// unitDivider divides by a fixed unit without a divide instruction, for
// dividends known to be multiples of it: a shift by the unit's factors
// of two, then a multiply by the inverse of its odd part modulo 2^64.
// The same inverse tests divisibility: an odd o divides x exactly when
// x·inv mod 2^64 is at most (2^64-1)/o (Hacker's Delight, 10-16 and
// 10-17).
type unitDivider struct {
	shift      uint
	inv, limit uint64
}

func newUnitDivider(unit uint64) unitDivider {
	shift := uint(bits.TrailingZeros64(unit))
	odd := unit >> shift
	// Newton's iteration: odd·odd ≡ 1 mod 8 holds 3 correct bits, and
	// each step doubles them, past 64 in five.
	inv := odd
	for i := 0; i < 5; i++ {
		inv *= 2 - odd*inv
	}
	return unitDivider{shift: shift, inv: inv, limit: math.MaxUint64 / odd}
}

// divides reports whether the unit divides x.
func (u unitDivider) divides(x uint64) bool {
	return uint(bits.TrailingZeros64(x)) >= u.shift && (x>>u.shift)*u.inv <= u.limit
}

// quo returns x / unit for x a multiple of the unit.
func (u unitDivider) quo(x uint64) uint64 { return (x >> u.shift) * u.inv }

// blockUnit returns the GCD of pts' timestamp deltas, or 1 when every
// delta is 0 or pts holds one point, and its divider. It stops at the
// first delta that brings the GCD to 1: no later delta can lower it.
// Deltas the GCD already divides, nearly all of them, cost a multiply.
func blockUnit(pts []sample) (uint64, unitDivider) {
	g, div := uint64(0), newUnitDivider(1)
	for i := 1; i < len(pts) && g != 1; i++ {
		d := uint64(pts[i].ns - pts[i-1].ns)
		if g != 0 && div.divides(d) {
			continue
		}
		for d != 0 {
			g, d = d, g%d
		}
		if g != 0 {
			div = newUnitDivider(g)
		}
	}
	return max(g, 1), div
}

// writeUnit writes a block's time unit: '0' for 1, else '1', the decimal
// exponent e (5 bits), the bit length of the mantissa less one (6 bits)
// and the mantissa, with unit = mantissa·10^e.
func writeUnit(w *bitWriter, unit uint64) {
	if unit == 1 {
		w.writeBits(0, 1)
		return
	}
	e := uint64(0)
	for e < uint64(len(pow10)-1) && unit%10 == 0 {
		unit /= 10
		e++
	}
	n := uint(bits.Len64(unit))
	w.writeBits(1<<11|e<<6|uint64(n-1), 12)
	w.writeBits(unit, n)
}

// Value modes. A multi-point block writes its values in scaled mode when
// every one of them is a decimal of at most scaleMax places and the
// mantissas' deltas cost fewer bits than XOR mode's stream, else in XOR
// mode.
const (
	// scaleXOR is blockEncoder.scale for a block in XOR mode.
	scaleXOR = -1
	// scaleMax is the largest decimal exponent of scaled mode.
	scaleMax = 18
	// maxMantissa bounds a scaled value's mantissa: |m| <= 2^53-1, where
	// every integer converts to a float64 exactly.
	maxMantissa = 1<<53 - 1
)

// scalePow holds 10^e for every exponent scaled mode may take, each
// exact in a float64.
var scalePow = func() (p [scaleMax + 1]float64) {
	for e := range p {
		p[e] = float64(pow10[e])
	}
	return p
}()

// scaledMantissa returns the mantissa m of v at scale pow = 10^e:
// float64(m)/pow is v bit for bit and |m| <= maxMantissa. ok is false
// when v·pow rounds to no such m; -0.0, NaN and ±Inf never have one.
func scaledMantissa(v, pow float64) (m int64, ok bool) {
	x := math.RoundToEven(v * pow)
	if !(math.Abs(x) <= maxMantissa) {
		return 0, false
	}
	m = int64(x)
	return m, math.Float64bits(float64(m)/pow) == math.Float64bits(v)
}

// buckets is one table of prefix buckets for a zigzagged field: bucket k
// < 5 is k ones and a zero, then a widths[k]-bit payload; bucket 5 is
// '11111' and 64 bits. A field takes the narrowest bucket that holds it.
type buckets struct {
	widths [6]uint
	// For a field n bits long, prefix[n] is its bucket's prefix shifted
	// above the payload, and size[n] the bits prefix and payload take.
	prefix [65]uint64
	size   [65]uint8
	// codes maps a field's top five bits to the bits its prefix and
	// payload take (low byte) and the payload's width (high byte), or to
	// 0 for bucket 5, which the decoder reads in two.
	codes [32]uint16
}

func newBuckets(widths [6]uint) (b buckets) {
	b.widths = widths
	k := uint(0)
	for n := range b.prefix {
		for uint(n) > widths[k] {
			k++
		}
		b.size[n] = uint8(min(k+1, 5) + widths[k])
		if k < 5 {
			b.prefix[n] = (1<<(k+1) - 2) << widths[k]
		}
	}
	for top := range b.codes {
		if k := uint(bits.LeadingZeros8(^uint8(top << 3))); k < 5 {
			b.codes[top] = uint16(widths[k])<<8 | uint16(k+1+widths[k])
		}
	}
	return b
}

var (
	// dodBuckets hold a timestamp's delta of deltas.
	dodBuckets = newBuckets([6]uint{0, 7, 16, 32, 48, 64})
	// valueBuckets hold a scaled value's mantissa delta.
	valueBuckets = newBuckets([6]uint{0, 4, 8, 16, 32, 64})
)

// field returns z in its bucket: the prefix above the payload, and the
// bits the two take. Past 64 bits, as in bucket 5, the field does not fit
// one write, and writeBucket takes it.
func (b *buckets) field(z uint64) (uint64, uint) {
	n := bits.Len64(z)
	return b.prefix[n] | z, uint(b.size[n])
}

// writeBucket writes z in its bucket of b.
func (w *bitWriter) writeBucket(b *buckets, z uint64) {
	if code, n := b.field(z); n <= 64 {
		w.writeBits(code, n)
		return
	}
	w.writeBits(0b11111, 5)
	w.writeBits(z, 64)
}

// xorWindow is XOR mode's state between two values: the last value's
// bits and the leading-zero / significant-bit window of the last XOR
// that defined one (lead 0xff marks none yet).
type xorWindow struct {
	bits      uint64
	lead, sig uint8
}

// next moves the window past v and returns v's fields: a control code of
// cn bits, then a payload of pn bits.
func (x *xorWindow) next(v uint64) (code uint64, cn uint, payload uint64, pn uint) {
	xor := v ^ x.bits
	x.bits = v
	if xor == 0 {
		return 0, 1, 0, 0
	}
	// A 5-bit field: extra leading zeros ride in the payload.
	lead := min(uint8(bits.LeadingZeros64(xor)), 31)
	trail := uint8(bits.TrailingZeros64(xor))
	// The previous window still covers every meaningful bit; lead, at
	// most 31, is below the 0xff of no window.
	if lead >= x.lead && trail >= 64-x.lead-x.sig {
		return 0b10, 2, xor >> (64 - x.lead - x.sig), uint(x.sig)
	}
	sig := 64 - lead - trail
	x.lead, x.sig = lead, sig
	// '11', 5 bits of leading zeros, 6 of significant bits (64 encodes as
	// 0), then the bits.
	return 0b11<<11 | uint64(lead)<<6 | uint64(sig&0x3f), 2 + 5 + 6, xor >> trail, uint(sig)
}

// blockScale returns the smallest decimal exponent e at which every value
// of pts has a mantissa (see scaledMantissa), and the bits the zigzagged
// deltas of those mantissas take in their buckets; e is scaleXOR when no
// exponent up to scaleMax serves. A value that needs a larger exponent
// than the scan's restarts it at the first one that serves that value, so
// a block of one scale costs one pass.
func blockScale(pts []sample) (e, nbits int) {
scan:
	for {
		pow := scalePow[e]
		var prev int64
		nbits = 0
		for i, p := range pts {
			m, ok := scaledMantissa(p.v, pow)
			if !ok {
				for e++; e <= scaleMax; e++ {
					if _, ok := scaledMantissa(p.v, scalePow[e]); ok {
						continue scan
					}
				}
				return scaleXOR, 0
			}
			if i > 0 {
				nbits += int(valueBuckets.size[bits.Len64(zigzag(m-prev))])
			}
			prev = m
		}
		return e, nbits
	}
}

// blockValueMode returns the value mode of a block of pts, more than one
// point: scaled mode's exponent when its mode field and deltas take fewer
// bits than XOR mode's, else scaleXOR. Either way the block is at most
// its XOR-mode stream plus the one-bit mode field.
func blockValueMode(pts []sample) int {
	e, scaled := blockScale(pts)
	if e == scaleXOR {
		return scaleXOR
	}
	scaled += 1 + 5
	xor := 1
	win := xorWindow{bits: math.Float64bits(pts[0].v), lead: 0xff}
	for _, p := range pts[1:] {
		_, cn, _, pn := win.next(math.Float64bits(p.v))
		if xor += int(cn + pn); xor > scaled {
			return e
		}
	}
	return scaleXOR
}

// blockEncoder is one block's encoder state: the time unit and value mode
// chosen for the whole block, and what the last point written leaves for
// the next one.
type blockEncoder struct {
	w    bitWriter
	unit unitDivider
	// scale is the value mode: scaleXOR, or scaled mode's exponent e, and
	// pow is 10^e.
	scale     int
	pow       float64
	prevT     int64
	prevDelta uint64
	xor       xorWindow // XOR mode: the last value and window
	prevM     int64     // scaled mode: the last value's mantissa
}

// startBlock begins a block of pts (time-ordered, 1..maxBlockPoints of
// them), writing its first point raw and, when it has more than one, its
// time unit and value mode. The caller writes pts[1:] in order.
func startBlock(pts []sample, buf []byte) blockEncoder {
	e := blockEncoder{w: bitWriter{data: buf}, scale: scaleXOR}
	p := pts[0]
	e.w.writeBits(uint64(p.ns), 64)
	e.w.writeBits(math.Float64bits(p.v), 64)
	e.prevT, e.xor = p.ns, xorWindow{bits: math.Float64bits(p.v), lead: 0xff}
	if len(pts) == 1 {
		return e
	}
	var unit uint64
	unit, e.unit = blockUnit(pts)
	writeUnit(&e.w, unit)
	if e.scale = blockValueMode(pts); e.scale == scaleXOR {
		e.w.writeBits(0, 1)
	} else {
		e.w.writeBits(1<<5|uint64(e.scale), 1+5)
		e.pow = scalePow[e.scale]
		e.prevM, _ = scaledMantissa(p.v, e.pow)
	}
	return e
}

// write appends pts after the points written so far: every delta a whole
// number of the block's unit and, in scaled mode, every value with a
// mantissa at the block's scale. The loop works on local copies of the
// state, which measured faster than e's fields.
func (e *blockEncoder) write(pts []sample) {
	w, prevT, prevDelta, prevM, xor := e.w, e.prevT, e.prevDelta, e.prevM, e.xor
	for _, p := range pts {
		delta := e.unit.quo(uint64(p.ns - prevT))
		zt := zigzag(int64(delta - prevDelta))
		tc, tn := dodBuckets.field(zt)
		prevT, prevDelta = p.ns, delta
		if e.scale != scaleXOR {
			m := int64(math.RoundToEven(p.v * e.pow))
			zv := zigzag(m - prevM)
			prevM = m
			// Timestamp and value in one write, but for the widest buckets.
			if vc, vn := valueBuckets.field(zv); tn+vn <= 64 {
				w.writeBits(tc<<vn|vc, tn+vn)
			} else {
				w.writeBucket(&dodBuckets, zt)
				w.writeBucket(&valueBuckets, zv)
			}
			continue
		}
		if tn <= 64 {
			w.writeBits(tc, tn)
		} else {
			w.writeBucket(&dodBuckets, zt)
		}
		// The value's control bits and payload in one write where they fit.
		if code, cn, payload, pn := xor.next(math.Float64bits(p.v)); cn+pn <= 64 {
			w.writeBits(code<<pn|payload, cn+pn)
		} else {
			w.writeBits(code, cn)
			w.writeBits(payload, pn)
		}
	}
	e.w, e.prevT, e.prevDelta, e.prevM, e.xor = w, prevT, prevDelta, prevM, xor
}

// encodeBlock compresses pts (time-ordered, 1..maxBlockPoints of them)
// into one block bitstream.
func encodeBlock(pts []sample) encodedBlock {
	e := startBlock(pts, make([]byte, 0, 24+len(pts)*4))
	e.write(pts[1:])
	return encodedBlock{
		data:  e.w.bytes(),
		count: uint32(len(pts)),
		minAt: pts[0].ns,
		maxAt: pts[len(pts)-1].ns,
	}
}

// encodeSeries compresses a series' time-ordered points into consecutive
// blocks of per points, the last one possibly shorter.
func encodeSeries(pts []sample, per int) []encodedBlock {
	blocks := make([]encodedBlock, 0, (len(pts)+per-1)/per)
	for len(pts) > 0 {
		n := min(per, len(pts))
		blocks = append(blocks, encodeBlock(pts[:n]))
		pts = pts[n:]
	}
	return blocks
}

// noHorizon is decodeBlock's horizon for a full decode: no timestamp
// lies past it.
const noHorizon int64 = math.MaxInt64

// Errors decodeBlock reports for timestamps and values no encoder writes.
var (
	errBlockUnitZero         = errors.New("tsdb: block time unit 0 out of range")
	errBlockUnitOverflow     = errors.New("tsdb: block time unit overflows")
	errBlockTimeOverflow     = errors.New("tsdb: block timestamp overflows")
	errBlockScaleRange       = errors.New("tsdb: block value scale out of range")
	errBlockScaleFirst       = errors.New("tsdb: block first value has no mantissa at its scale")
	errBlockMantissaOverflow = errors.New("tsdb: block value mantissa overflows")
)

// decodeBlock decompresses a block bitstream holding count points into
// dst's storage when its capacity holds count points, or into a new
// slice of exactly count. It is the trust boundary for on-disk block
// bytes: any count outside [1, maxBlockPoints], truncation, trailing
// garbage, a time unit of 0 or past 64 bits, a delta or timestamp that
// would wrap, a value scale past scaleMax, a first value with no mantissa
// at its block's scale and a mantissa past maxMantissa are errors, and
// nothing larger than count points is ever allocated. Reads may run into
// refillBits' zero padding; every check that acts on decoded bits first
// confirms they lay within the stream, so truncation always reports
// errBlockTruncated.
//
// Decoding stops after the first point whose timestamp is past horizon:
// the result is then that prefix of the block, and the bits after it are
// never read, so neither is the trailing-data check. With noHorizon the
// whole block decodes and every check runs.
func decodeBlock(dst []sample, data []byte, count int, horizon int64) ([]sample, error) {
	if count < 1 || count > maxBlockPoints {
		return nil, fmt.Errorf("tsdb: block point count %d out of range", count)
	}
	if len(data) > maxBlockBytes {
		return nil, fmt.Errorf("tsdb: block length %d out of range", len(data))
	}
	var acc uint64
	var nacc uint
	next := 0
	// read consumes n bits, n in [1, 57], right-aligned. It inlines, which
	// keeps acc, nacc and next in registers; wider fields take two reads.
	read := func(n uint) uint64 {
		if nacc < n {
			acc, nacc, next = refillBits(data, acc, nacc, next)
		}
		v := acc >> (64 - n)
		acc <<= n
		nacc -= n
		return v
	}
	overran := func() bool { return next*8-int(nacc) > len(data)*8 }

	pts := dst
	if cap(pts) < count {
		pts = make([]sample, count)
	}
	pts = pts[:count]
	t := int64(read(32)<<32 | read(32))
	vbits := read(32)<<32 | read(32)
	if overran() {
		return nil, errBlockTruncated
	}
	v := math.Float64frombits(vbits)
	pts[0] = sample{ns: t, v: v}
	if t > horizon {
		return pts[:1:1], nil
	}
	unit := uint64(1)
	// Scaled mode: m is the last value's mantissa at scale pow; pow 0
	// marks XOR mode.
	var pow float64
	var m int64
	if count > 1 {
		if read(1) == 1 {
			f := read(11)
			e, n := f>>6, uint(f&0x3f)+1
			var mu uint64
			if n > 57 {
				mu = read(n-32)<<32 | read(32)
			} else {
				mu = read(n)
			}
			if overran() {
				return nil, errBlockTruncated
			}
			if mu == 0 {
				return nil, errBlockUnitZero
			}
			if e >= uint64(len(pow10)) {
				return nil, errBlockUnitOverflow
			}
			hi, lo := bits.Mul64(mu, pow10[e])
			if hi != 0 {
				return nil, errBlockUnitOverflow
			}
			unit = lo
		}
		if read(1) == 1 {
			e := read(5)
			if overran() {
				return nil, errBlockTruncated
			}
			if e > scaleMax {
				return nil, errBlockScaleRange
			}
			pow = scalePow[e]
			var ok bool
			if m, ok = scaledMantissa(v, pow); !ok {
				return nil, errBlockScaleFirst
			}
		}
	}
	// delta counts the units from one timestamp to the next.
	var delta uint64
	// lead == 0xff marks "no value window defined yet".
	lead, sig := uint(0xff), uint(0)
	for i := 1; i < count; i++ {
		// Timestamp: the top five bits, which hold the bucket prefix
		// '0'/'10'/'110'/'1110'/'11110'/'11111', look up the field's length
		// and payload width. A prefix and its payload come in one read but
		// for the 64-bit bucket; '0' reads a zero-width payload.
		if nacc < 5 {
			acc, nacc, next = refillBits(data, acc, nacc, next)
		}
		var z uint64
		if c := dodBuckets.codes[acc>>59]; c != 0 {
			z = read(uint(c&0xff)) & (1<<(c>>8) - 1)
		} else {
			read(5)
			z = read(32)<<32 | read(32)
		}
		delta += uint64(unzigzag(z))
		if pow != 0 {
			// Value, scaled mode: the mantissa's delta, bucketed as the
			// timestamp's dod is.
			if nacc < 5 {
				acc, nacc, next = refillBits(data, acc, nacc, next)
			}
			if c := valueBuckets.codes[acc>>59]; c != 0 {
				z = read(uint(c&0xff)) & (1<<(c>>8) - 1)
			} else {
				read(5)
				z = read(32)<<32 | read(32)
			}
			// A wrapped sum lands in range only where the exact one does.
			m += unzigzag(z)
			if uint64(m+maxMantissa) > 2*maxMantissa {
				if overran() {
					return nil, errBlockTruncated
				}
				return nil, errBlockMantissaOverflow
			}
			v = float64(m) / pow
		} else if read(1) == 1 {
			// Value, XOR mode: control bits, then a new 5+6-bit window or
			// the old one.
			if read(1) == 1 {
				w := read(11)
				if overran() {
					return nil, errBlockTruncated
				}
				lead, sig = uint(w>>6), uint(w&0x3f)
				if sig == 0 {
					sig = 64
				}
				if lead+sig > 64 {
					return nil, fmt.Errorf("tsdb: block value window %d+%d overflows", lead, sig)
				}
			} else if lead == 0xff {
				if overran() {
					return nil, errBlockTruncated
				}
				return nil, errors.New("tsdb: block reuses value window before defining one")
			}
			var x uint64
			if sig > 57 {
				x = read(sig-32)<<32 | read(32)
			} else {
				x = read(sig)
			}
			vbits ^= x << (64 - lead - sig)
			v = math.Float64frombits(vbits)
		}
		if overran() {
			return nil, errBlockTruncated
		}
		// The step in nanoseconds must fit 64 bits and the room left below
		// MaxInt64, which itself fits a uint64 whatever t's sign.
		hi, step := bits.Mul64(delta, unit)
		if hi != 0 || step > math.MaxInt64-uint64(t) {
			return nil, errBlockTimeOverflow
		}
		t += int64(step)
		pts[i] = sample{ns: t, v: v}
		if t > horizon {
			return pts[: i+1 : i+1], nil
		}
	}
	// Trailing data beyond the final byte's bit padding means the index's
	// count disagrees with the stream — corruption either way.
	if (next*8-int(nacc)+7)/8 != len(data) {
		return nil, errors.New("tsdb: block has trailing data")
	}
	return pts[:count:count], nil
}

// blockSealEntry is one series' staged contribution to a block file
// write: its encoded blocks, time-ordered.
type blockSealEntry struct {
	key    SeriesKey
	canon  string
	blocks []encodedBlock
}

// writeBlockFileTo writes a complete block file (header, blocks, index,
// footer) to w through a 64 KiB buffer. Entries must be sorted by
// canonical key and hold at least one block each. mid, when non-nil, runs
// after the data blocks have reached w and before the index — the
// crash-matrix harness uses it to freeze a file with data but no index.
func writeBlockFileTo(w io.Writer, entries []blockSealEntry, mid func() error) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var tmp [8]byte
	bw.WriteString(blockFileMagic)
	binary.LittleEndian.PutUint16(tmp[:2], blockFileVer)
	bw.Write(tmp[:2])
	off := uint64(blockHeaderLen)
	// The index is assembled while the data blocks stream out, then
	// written in one piece so its CRC covers exactly the bytes on disk.
	idx := make([]byte, 0, 64*len(entries))
	idx = binary.LittleEndian.AppendUint32(idx, uint32(len(entries)))
	for _, e := range entries {
		idx = binary.LittleEndian.AppendUint16(idx, uint16(len(e.canon)))
		idx = append(idx, e.canon...)
		idx = binary.LittleEndian.AppendUint32(idx, uint32(len(e.blocks)))
		for _, b := range e.blocks {
			bw.Write(b.data)
			idx = binary.LittleEndian.AppendUint64(idx, off)
			idx = binary.LittleEndian.AppendUint32(idx, uint32(len(b.data)))
			idx = binary.LittleEndian.AppendUint32(idx, b.count)
			idx = binary.LittleEndian.AppendUint64(idx, uint64(b.minAt))
			idx = binary.LittleEndian.AppendUint64(idx, uint64(b.maxAt))
			idx = binary.LittleEndian.AppendUint32(idx, crc32.ChecksumIEEE(b.data))
			off += uint64(len(b.data))
		}
	}
	if mid != nil {
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := mid(); err != nil {
			return err
		}
	}
	bw.Write(idx)
	binary.LittleEndian.PutUint64(tmp[:], off)
	bw.Write(tmp[:8])
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(idx)))
	bw.Write(tmp[:4])
	binary.LittleEndian.PutUint32(tmp[:4], crc32.ChecksumIEEE(idx))
	bw.Write(tmp[:4])
	bw.WriteString(blockIdxMagic)
	// A bufio.Writer's errors stick: Flush reports the first write that failed.
	return bw.Flush()
}

// coldSegment is one open block file shared by every series with blocks
// in it. Reads go through ReadAt, so concurrent block decodes never
// contend on a seek position.
//
// decoded holds one bit per block of the file, indexed by blockMeta.ord:
// set once this process has decoded the block in full, which ran the
// trailing-data check that ties the stream to the index's point count.
// Only such a block may be decoded to a window's end (see
// coldBlockPoints); a fresh process starts with every bit clear.
//
// A segment with no file (f nil) is the data section of the committed
// checkpoint, held in memory as data: the unsealed points' blocks. Those
// bytes were decoded in full when an open loaded them, or came from the
// encoder, so a read decodes them to any window's end.
type coldSegment struct {
	seq     uint64
	f       *os.File
	size    int64
	decoded []atomic.Uint64
	data    []byte
}

// newColdSegment wraps block file seq, open as f, whose index is entries.
func newColdSegment(seq uint64, f *os.File, size int64, entries []blockIndexEntry) *coldSegment {
	n := 0
	for _, e := range entries {
		n += len(e.blocks)
	}
	return &coldSegment{seq: seq, f: f, size: size, decoded: make([]atomic.Uint64, (n+63)/64)}
}

// decodedInFull reports whether block ord has been decoded in full.
func (s *coldSegment) decodedInFull(ord uint32) bool {
	return s.decoded[ord/64].Load()&(1<<(ord%64)) != 0
}

// markDecoded records a successful full decode of block ord.
func (s *coldSegment) markDecoded(ord uint32) {
	w, bit := &s.decoded[ord/64], uint64(1)<<(ord%64)
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// blockMeta locates one block of a series: where its bytes live, what
// they decode to, and where the block starts in the series' global point
// index (block points first, then the raw tail). minAt and maxAt are unix
// nanoseconds, as the index stores them; ord is the block's position in
// its file's index. A block held in memory (seg.f nil) is off..off+length
// of seg.data; crc and ord serve file blocks only.
type blockMeta struct {
	seg    *coldSegment
	off    uint64
	length uint32
	count  uint32
	crc    uint32
	ord    uint32
	minAt  int64
	maxAt  int64
	start  int
}

// blocksN returns how many points blocks hold: the global index just past
// the last of them.
func blocksN(blocks []blockMeta) int {
	if len(blocks) == 0 {
		return 0
	}
	b := &blocks[len(blocks)-1]
	return b.start + int(b.count)
}

// blockIndexEntry is one series' decoded index entry from a block file.
// The blocks carry file-local metadata only; the caller attaches them to
// a segment and assigns global start indices.
type blockIndexEntry struct {
	key    SeriesKey
	blocks []blockMeta
}

// readBlockIndex opens the index of a block file — sealed history or a
// checkpoint — of size bytes: header and footer are validated, the index
// section is CRC-checked and parsed, series must appear in strictly
// ascending key order, and the blocks must tile the data section, back to
// back in index order, as writeBlockFileTo lays them out. Blocks are not
// decoded. This is a trust boundary: corrupt input errors, never panics,
// never over-allocates.
func readBlockIndex(f io.ReaderAt, size int64) ([]blockIndexEntry, error) {
	if size < int64(blockHeaderLen+blockFooterLen) {
		return nil, errors.New("tsdb: block file too short")
	}
	head := make([]byte, blockHeaderLen)
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("tsdb: block file header: %w", err)
	}
	if string(head[:len(blockFileMagic)]) != blockFileMagic {
		return nil, errors.New("tsdb: block file: bad magic")
	}
	if v := binary.LittleEndian.Uint16(head[len(blockFileMagic):]); v != blockFileVer {
		return nil, fmt.Errorf("tsdb: block file: unsupported version %d", v)
	}
	foot := make([]byte, blockFooterLen)
	if _, err := f.ReadAt(foot, size-int64(blockFooterLen)); err != nil {
		return nil, fmt.Errorf("tsdb: block file footer: %w", err)
	}
	if string(foot[16:]) != blockIdxMagic {
		return nil, errors.New("tsdb: block file: bad footer magic")
	}
	idxOff := binary.LittleEndian.Uint64(foot[:8])
	idxLen := binary.LittleEndian.Uint32(foot[8:12])
	idxCRC := binary.LittleEndian.Uint32(foot[12:16])
	if idxLen > maxBlockIndexBytes || idxOff < uint64(blockHeaderLen) ||
		idxOff+uint64(idxLen) != uint64(size-int64(blockFooterLen)) {
		return nil, errors.New("tsdb: block file: index bounds corrupt")
	}
	idx := make([]byte, idxLen)
	if _, err := f.ReadAt(idx, int64(idxOff)); err != nil {
		return nil, fmt.Errorf("tsdb: block file index: %w", err)
	}
	if crc32.ChecksumIEEE(idx) != idxCRC {
		return nil, errors.New("tsdb: block file: index CRC mismatch")
	}
	if len(idx) < 4 {
		return nil, errors.New("tsdb: block file: index too short")
	}
	nSeries := binary.LittleEndian.Uint32(idx)
	pos := 4
	// Each series entry costs at least 2+1(key)+4 bytes, so nSeries is
	// bounded by the index length before anything is allocated.
	if uint64(nSeries) > uint64(len(idx)-4)/7+1 {
		return nil, errors.New("tsdb: block file: series count corrupt")
	}
	out := make([]blockIndexEntry, 0, nSeries)
	ord := uint32(0)
	next := uint64(blockHeaderLen) // where the next block must start
	var prevKey []byte
	for si := uint32(0); si < nSeries; si++ {
		if pos+2 > len(idx) {
			return nil, errors.New("tsdb: block file: index truncated")
		}
		keyLen := int(binary.LittleEndian.Uint16(idx[pos:]))
		pos += 2
		if pos+keyLen+4 > len(idx) {
			return nil, errors.New("tsdb: block file: index truncated")
		}
		rawKey := idx[pos : pos+keyLen]
		key, err := ParseSeriesKey(string(rawKey))
		if err != nil {
			return nil, fmt.Errorf("tsdb: block file index: %w", err)
		}
		if si > 0 && bytes.Compare(rawKey, prevKey) <= 0 {
			return nil, fmt.Errorf("tsdb: block file: series %v out of key order", key)
		}
		prevKey = rawKey
		pos += keyLen
		nBlocks := int(binary.LittleEndian.Uint32(idx[pos:]))
		pos += 4
		if nBlocks < 1 || nBlocks > (len(idx)-pos)/blockIdxEntLen {
			return nil, errors.New("tsdb: block file: block count corrupt")
		}
		blocks := make([]blockMeta, nBlocks)
		for bi := range blocks {
			off := binary.LittleEndian.Uint64(idx[pos:])
			length := binary.LittleEndian.Uint32(idx[pos+8:])
			count := binary.LittleEndian.Uint32(idx[pos+12:])
			minAt := int64(binary.LittleEndian.Uint64(idx[pos+16:]))
			maxAt := int64(binary.LittleEndian.Uint64(idx[pos+24:]))
			crc := binary.LittleEndian.Uint32(idx[pos+32:])
			pos += blockIdxEntLen
			if count < 1 || count > maxBlockPoints || length > maxBlockBytes ||
				off != next || off+uint64(length) > idxOff {
				return nil, fmt.Errorf("tsdb: block file: block %d of %v out of bounds", bi, key)
			}
			next += uint64(length)
			if maxAt < minAt {
				return nil, fmt.Errorf("tsdb: block file: block %d of %v time range inverted", bi, key)
			}
			if bi > 0 && minAt < blocks[bi-1].maxAt {
				return nil, fmt.Errorf("tsdb: block file: blocks of %v out of order", key)
			}
			blocks[bi] = blockMeta{
				off:    off,
				length: length,
				count:  count,
				crc:    crc,
				ord:    ord,
				minAt:  minAt,
				maxAt:  maxAt,
			}
			ord++
		}
		out = append(out, blockIndexEntry{key: key, blocks: blocks})
	}
	if pos != len(idx) {
		return nil, errors.New("tsdb: block file: trailing index data")
	}
	if next != idxOff {
		return nil, errors.New("tsdb: block file: data section and blocks disagree")
	}
	return out, nil
}

// blockReadBufs recycles readBlockData's read buffers: decodeBlock copies
// every point out, so nothing retains a buffer past its read.
var blockReadBufs = sync.Pool{New: func() any { return new([]byte) }}

// readBlockData reads one block's bytes from its file r, whole, and
// decodes them through horizon into dst (see checkedDecode).
func readBlockData(r io.ReaderAt, b *blockMeta, dst []sample, horizon int64) ([]sample, error) {
	bp := blockReadBufs.Get().(*[]byte)
	defer blockReadBufs.Put(bp)
	if cap(*bp) < int(b.length) {
		*bp = make([]byte, b.length)
	}
	buf := (*bp)[:b.length]
	if _, err := r.ReadAt(buf, int64(b.off)); err != nil {
		return nil, fmt.Errorf("tsdb: block read: %w", err)
	}
	return checkedDecode(buf, b, dst, horizon)
}

// checkedDecode decodes block b's bytes, buf, through horizon into dst
// (see decodeBlock), verifying the index's CRC first so a bit flip in the
// data section is reported as corruption rather than decoded into
// garbage points.
func checkedDecode(buf []byte, b *blockMeta, dst []sample, horizon int64) ([]sample, error) {
	if crc32.ChecksumIEEE(buf) != b.crc {
		return nil, errors.New("tsdb: block CRC mismatch")
	}
	return decodeBlock(dst, buf, int(b.count), horizon)
}

// memBytes returns the encoded bytes of a block held in memory.
func (b *blockMeta) memBytes() []byte { return b.seg.data[b.off : b.off+uint64(b.length)] }
