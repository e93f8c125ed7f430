package tsdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/simrand"
)

// openMasked opens a store whose key hashes are ANDed with mask: the
// mask is read at open, so it holds for this store alone. ^0 is a plain
// open; a small mask squeezes every key into a few hash values, so most
// series sit on a collision chain.
func openMasked(t testing.TB, dir string, o tuning, mask uint64) *DB {
	t.Helper()
	old := keyHashMask
	keyHashMask = mask
	db, err := openTuned(dir, o)
	keyHashMask = old
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// squeezed is the mask of the collision tests: at most four hash values.
const squeezed = 3

// compareStores demands that got and want hold the same series, in the
// same Keys order, with the same points and last points.
func compareStores(t *testing.T, stage string, got, want *DB) {
	t.Helper()
	if g, w := got.PointCount(), want.PointCount(); g != w {
		t.Fatalf("%s: PointCount = %d, want %d", stage, g, w)
	}
	if g, w := got.SeriesCount(), want.SeriesCount(); g != w {
		t.Fatalf("%s: SeriesCount = %d, want %d", stage, g, w)
	}
	gk, wk := got.Keys(KeyFilter{}), want.Keys(KeyFilter{})
	if len(gk) != len(wk) {
		t.Fatalf("%s: %d keys, want %d", stage, len(gk), len(wk))
	}
	for i := range wk {
		if gk[i] != wk[i] {
			t.Fatalf("%s: Keys[%d] = %v, want %v", stage, i, gk[i], wk[i])
		}
		gp := noerr(got.Query(wk[i], year1, year9999))
		wp := noerr(want.Query(wk[i], year1, year9999))
		if len(gp) != len(wp) {
			t.Fatalf("%s: series %v: %d points, want %d", stage, wk[i], len(gp), len(wp))
		}
		for j := range wp {
			if gp[j] != wp[j] {
				t.Fatalf("%s: series %v point %d = %v, want %v", stage, wk[i], j, gp[j], wp[j])
			}
		}
		gl, gok := noerr2(got.Last(wk[i]))
		wl, wok := noerr2(want.Last(wk[i]))
		if gl != wl || gok != wok {
			t.Fatalf("%s: Last(%v) = (%v, %v), want (%v, %v)", stage, wk[i], gl, gok, wl, wok)
		}
	}
}

// TestAppendBatchIfChangedMatchesPointwise checks the collector's one
// write call against its definition: AppendBatchIfChanged on one durable
// store and AppendIfChanged, entry by entry, on another must store the
// same points and report the same errors, live and after a reopen that
// attaches sealed blocks, loads the checkpoint and replays the WAL.
func TestAppendBatchIfChangedMatchesPointwise(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			checkBatchIfChanged(t, shards, ^uint64(0))
		})
	}
}

// checkBatchIfChanged runs the batch-against-pointwise comparison with
// the batch store's key hashes ANDed with mask; the pointwise store
// always hashes in full, so it is an independent reference.
func checkBatchIfChanged(t *testing.T, shards int, mask uint64) {
	t.Helper()
	r := simrand.New(38).StreamN("batch-if-changed", shards)
	o := tuning{shards: shards, hotTail: 4, blockPoints: 8}
	dirB, dirP := t.TempDir(), t.TempDir()
	batchDB := openMasked(t, dirB, o, mask)
	pointDB := openMasked(t, dirP, o, ^uint64(0))
	defer func() { batchDB.Close(); pointDB.Close() }()

	var known []SeriesKey
	for _, typ := range []string{"m5.xlarge", "c5.large", "r5.2xlarge"} {
		for _, region := range []string{"us-east-1", "eu-west-1"} {
			for _, az := range []string{"", "a", "b"} {
				known = append(known, SeriesKey{Dataset: DatasetPlacementScore, Type: typ, Region: region, AZ: az})
			}
		}
	}
	invalid := func(at time.Time) Entry {
		switch r.Intn(3) {
		case 0:
			return Entry{Key: SeriesKey{Dataset: DatasetPrice, Type: "m5.xlarge"}, At: at, Value: 1}
		case 1:
			return Entry{Key: known[0], At: at, Value: math.NaN()}
		}
		return Entry{Key: known[0], At: time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), Value: 1}
	}
	fresh, outOfOrder := 0, 0
	for tick := 0; tick < 80; tick++ {
		at := t0.Add(time.Duration(tick) * 10 * time.Minute)
		var batch []Entry
		// A series new to the store is created mid-batch and hit again
		// later in it: once with another value, once with the same.
		newKey := SeriesKey{Dataset: DatasetPrice, Type: fmt.Sprintf("n%d.large", fresh), Region: "us-west-2", AZ: "c"}
		fresh++
		first, second := 1+r.Intn(6), 8+r.Intn(6)
		for slot := 0; slot < 16; slot++ {
			switch {
			case slot == first:
				batch = append(batch, Entry{Key: newKey, At: at, Value: 1})
				continue
			case slot == second:
				batch = append(batch, Entry{Key: newKey, At: at, Value: 2}, Entry{Key: newKey, At: at, Value: 2})
				continue
			}
			k := known[r.Intn(len(known))]
			switch r.Intn(8) {
			case 0: // one key twice in the batch
				if len(batch) > 0 {
					k = batch[r.Intn(len(batch))].Key
				}
				batch = append(batch, Entry{Key: k, At: at, Value: float64(r.Intn(3))})
			case 1: // out of order once the series has a later point
				batch = append(batch, Entry{Key: k, At: at.Add(-25 * time.Minute), Value: float64(10 + r.Intn(3))})
			case 2:
				batch = append(batch, invalid(at))
			case 3: // the series' current value
				v := 0.0
				if p, ok := noerr2(pointDB.Last(k)); ok {
					v = p.Value
				}
				batch = append(batch, Entry{Key: k, At: at, Value: v})
			default: // equal to the last value one time in three
				batch = append(batch, Entry{Key: k, At: at, Value: float64(r.Intn(3))})
			}
		}

		gotN, gotErr := batchDB.AppendBatchIfChanged(batch)
		wantN, firstInvalid := 0, -1
		var errs []string
		for _, e := range batch {
			stored, err := pointDB.AppendIfChanged(e.Key, e.At, e.Value)
			if stored {
				wantN++
			}
			if err != nil {
				errs = append(errs, err.Error())
				switch {
				case validKey(e.Key) == nil && validPoint(e.At, e.Value) == nil:
					outOfOrder++
				case firstInvalid < 0:
					firstInvalid = len(errs) - 1
				}
			}
		}
		if gotN != wantN {
			t.Fatalf("tick %d: batch stored %d, pointwise %d", tick, gotN, wantN)
		}
		// The batch rejects invalid entries before it stores anything, so
		// its first error is the first invalid entry's; otherwise it is
		// one of the rejections, in the order its shard groups ran.
		switch {
		case (gotErr == nil) != (len(errs) == 0):
			t.Fatalf("tick %d: batch err %v, pointwise errs %q", tick, gotErr, errs)
		case firstInvalid >= 0 && gotErr.Error() != errs[firstInvalid]:
			t.Fatalf("tick %d: batch err %v, want the first invalid entry's %q", tick, gotErr, errs[firstInvalid])
		case gotErr != nil && !slices.Contains(errs, gotErr.Error()):
			t.Fatalf("tick %d: batch err %v is none of the pointwise errs %q", tick, gotErr, errs)
		}
		if tick == 50 {
			// Seal blocks and cut the log, so the reopen below attaches
			// blocks, loads a checkpoint and replays a WAL tail.
			for _, db := range []*DB{batchDB, pointDB} {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if batchDB.SealedBlocks() == 0 {
				t.Fatal("the checkpoint sealed no block")
			}
		}
	}
	if outOfOrder == 0 {
		t.Fatal("no batch entry was rejected as out of order")
	}
	compareStores(t, "live", batchDB, pointDB)

	for _, db := range []*DB{batchDB, pointDB} {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	batchDB = openMasked(t, dirB, o, mask)
	pointDB = openMasked(t, dirP, o, ^uint64(0))
	if batchDB.SealedBlocks() == 0 || batchDB.ReplayedWALBytes() == 0 {
		t.Fatalf("reopen attached %d blocks and replayed %d WAL bytes; want both", batchDB.SealedBlocks(), batchDB.ReplayedWALBytes())
	}
	compareStores(t, "reopened", batchDB, pointDB)
}

// hashValues returns how many distinct key hashes db's shards index.
func hashValues(db *DB) int {
	n := 0
	for i := range db.shards {
		n += len(db.shards[i].index)
	}
	return n
}

// TestKeyHashCollisions squeezes every key hash into at most four values,
// so nearly every series is found by walking a collision chain, and
// demands the reference store's answers: the differential suite, the
// batch-against-pointwise check, Keys order, SeriesCount, and a
// checkpoint that seals, then a reopen that attaches the blocks, loads
// the checkpoint and replays the WAL.
func TestKeyHashCollisions(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("differential/shards=%d", shards), func(t *testing.T) {
			runDifferential(t, shards, squeezed)
		})
		t.Run(fmt.Sprintf("batch/shards=%d", shards), func(t *testing.T) {
			checkBatchIfChanged(t, shards, squeezed)
		})
	}
	t.Run("checkpoint-reopen", func(t *testing.T) {
		dir := t.TempDir()
		o := tuning{shards: 8, hotTail: 4, blockPoints: 8}
		db := openMasked(t, dir, o, squeezed)
		ref := newRefDB()
		var keys []SeriesKey
		for i := 0; i < 40; i++ {
			keys = append(keys, SeriesKey{Dataset: DatasetPlacementScore, Type: fmt.Sprintf("t%d.xlarge", i%10), Region: fmt.Sprintf("r%d", i/10), AZ: strings.Repeat("z", i%3)})
		}
		add := func(from, to int) {
			t.Helper()
			for i := from; i < to; i++ {
				at := t0.Add(time.Duration(i) * time.Minute)
				var batch []Entry
				for j, k := range keys {
					v := float64((i + j) % 5)
					batch = append(batch, Entry{Key: k, At: at, Value: v})
					if err := ref.append(k, at, v); err != nil {
						t.Fatal(err)
					}
				}
				if n, err := db.AppendBatch(batch); err != nil || n != len(batch) {
					t.Fatalf("AppendBatch stored %d of %d: %v", n, len(batch), err)
				}
			}
		}
		check := func(stage string) {
			t.Helper()
			if n := hashValues(db); n > 4 {
				t.Fatalf("%s: %d key hashes, want at most 4", stage, n)
			}
			if got, want := db.SeriesCount(), len(ref.series); got != want {
				t.Fatalf("%s: SeriesCount = %d, want %d", stage, got, want)
			}
			want := ref.keys(KeyFilter{})
			got := db.Keys(KeyFilter{})
			if len(got) != len(want) {
				t.Fatalf("%s: %d keys, want %d", stage, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: Keys[%d] = %v, want %v", stage, i, got[i], want[i])
				}
				pts := noerr(db.Query(want[i], year1, year9999))
				if len(pts) != len(ref.series[want[i]]) {
					t.Fatalf("%s: series %v: %d points, want %d", stage, want[i], len(pts), len(ref.series[want[i]]))
				}
				for j, p := range ref.series[want[i]] {
					if !pts[j].At.Equal(p.At) || pts[j].Value != p.Value {
						t.Fatalf("%s: series %v point %d = %v, want %v", stage, want[i], j, pts[j], p)
					}
				}
			}
		}
		add(0, 20)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if db.SealedBlocks() == 0 {
			t.Fatal("the checkpoint sealed no block")
		}
		add(20, 25)
		check("live")
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = openMasked(t, dir, o, squeezed)
		defer db.Close()
		if db.SealedBlocks() == 0 || db.ReplayedWALBytes() == 0 {
			t.Fatalf("reopen attached %d blocks and replayed %d WAL bytes; want both", db.SealedBlocks(), db.ReplayedWALBytes())
		}
		check("reopened")
		add(25, 30)
		check("appended after reopen")
	})
}

// TestAppendRecordBytes pins the WAL group record: one small record byte
// for byte, with a base delta from the previous record and all three
// value forms, then records holding defining and referencing entries, IDs
// past one uvarint byte, zero, positive and negative deltas, multi-byte
// UTF-8 keys and an exactly-maxKeyBytes key against a reference encoding
// built from each key's canonical string. Every record decodes back to
// its entries and its base.
func TestAppendRecordBytes(t *testing.T) {
	k := SeriesKey{Dataset: "d", Type: "t", Region: "r", AZ: "a"}
	rec := beginRecord([]byte("earlier records"), 400, 1000)
	rec = appendRecordEntry(rec, 0, &k, 1000, 1000, 1.5)
	rec = appendRecordEntry(rec, 0, nil, 1000, 999, -2)
	rec = appendRecordEntry(rec, 0, nil, 1000, 1003, math.Copysign(0, -1))
	rec = finishRecord(rec, len("earlier records"))
	body := []byte{
		0xb0, 0x09, // varint base delta 600 (1000 - 400)
		0x01, 0x07, 'd', '|', 't', '|', 'r', '|', 'a', // defines ID 0: "d|t|r|a"
		0x01,       // delta 0, scaled form
		0x01, 0x1e, // e 1, mantissa 15: 1.5
		0x00,                      // references ID 0
		0x04,                      // delta -1, integer form
		0x03,                      // mantissa -2
		0x00,                      // references ID 0
		0x1a,                      // delta 3, raw form
		0, 0, 0, 0, 0, 0, 0, 0x80, // -0
	}
	lenBody := append([]byte{byte(len(body))}, body...)
	want := append([]byte("earlier records"), binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(lenBody))...)
	if want = append(want, lenBody...); !bytes.Equal(rec, want) {
		t.Fatalf("record\n got  %x\n want %x", rec, want)
	}

	type ent struct {
		id     uint64
		key    string // empty: a referencing entry
		ns     int64
		v      float64
		series SeriesKey
	}
	reference := func(prev, base int64, ents []ent) []byte {
		body := binary.AppendVarint(nil, base-prev)
		for _, e := range ents {
			if e.key == "" {
				body = binary.AppendUvarint(body, e.id<<1)
			} else {
				body = binary.AppendUvarint(body, e.id<<1|1)
				body = binary.AppendUvarint(body, uint64(len(e.key)))
				body = append(body, e.key...)
			}
			form, exp, m := walValue(e.v)
			body = binary.AppendUvarint(body, zigzag(e.ns-base)<<2|form)
			switch form {
			case walValueInt:
				body = binary.AppendVarint(body, m)
			case walValueScaled:
				body = binary.AppendVarint(append(body, byte(exp)), m)
			default:
				body = binary.LittleEndian.AppendUint64(body, math.Float64bits(e.v))
			}
		}
		head := binary.AppendUvarint(nil, uint64(len(body)))
		return append(binary.LittleEndian.AppendUint32(nil, crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, body)), append(head, body...)...)
	}
	long := SeriesKey{Dataset: DatasetPrice, Region: "us-east-1", AZ: "us-east-1a"}
	long.Type = strings.Repeat("x", maxKeyBytes-len(long.Dataset)-len(long.Region)-len(long.AZ)-3)
	if len(long.String()) != maxKeyBytes || validKey(long) != nil {
		t.Fatalf("long key is %d bytes, want %d", len(long.String()), maxKeyBytes)
	}
	keys := []SeriesKey{
		{Dataset: DatasetPlacementScore, Type: "m5.xlarge", Region: "us-east-1", AZ: "us-east-1a"},
		{Dataset: DatasetInterruptFree, Type: "c5.large", Region: "eu-west-1"},
		{Dataset: "preço", Type: "ç5.大型", Region: "東京-1", AZ: "ñ"},
		long,
	}
	base := t0.UnixNano()
	for name, ents := range map[string][]ent{
		"one defining entry": {{id: 0, ns: base, v: 1, series: keys[0]}},
		"define then reference": {
			{id: 0, ns: base, v: 1, series: keys[0]},
			{id: 1, ns: base + 7, v: -2.5, series: keys[1]},
			{id: 0, ns: base + int64(time.Hour), v: 0.0416, series: keys[0]},
		},
		"UTF-8 and maxKeyBytes": {
			{id: 63, ns: base, v: 0.25, series: keys[2]},
			{id: 64, ns: base - int64(time.Minute), v: 4, series: keys[3]},
			{id: 64, ns: base + 1, v: math.Pi, series: keys[3]},
		},
		"references only, two-byte IDs": {
			{id: 1599, ns: base, v: 1, series: keys[0]},
			{id: 200, ns: base, v: 2, series: keys[1]},
		},
	} {
		// The first entry of each ID defines it, unless the case is
		// references only. The record follows one based 10 minutes
		// earlier.
		defined := map[uint64]bool{}
		refsOnly := strings.HasPrefix(name, "references")
		prev := ents[0].ns - int64(10*time.Minute)
		got := beginRecord(nil, prev, ents[0].ns)
		for i := range ents {
			e := &ents[i]
			var def *SeriesKey
			if !refsOnly && !defined[e.id] {
				defined[e.id], e.key, def = true, e.series.String(), &e.series
			}
			got = appendRecordEntry(got, e.id, def, ents[0].ns, e.ns, e.v)
		}
		got = finishRecord(got, 0)
		if want := reference(prev, ents[0].ns, ents); !bytes.Equal(got, want) {
			t.Fatalf("%s: record differs from the canonical-key encoding", name)
		}
		// A defining case's first ID is the segment's next free one; a
		// references-only record decodes in a segment that defined 1600.
		next := ents[0].id
		if refsOnly {
			next = 1600
		}
		_, lenLen := binary.Uvarint(got[walCRCLen:])
		dec, recBase, _, err := decodeRecordBody(got[walCRCLen+lenLen:], prev, next, nil)
		if err != nil || len(dec) != len(ents) || recBase != ents[0].ns {
			t.Fatalf("%s: decoded %d of %d entries at base %d, err %v", name, len(dec), len(ents), recBase, err)
		}
		for i, e := range dec {
			if e.id != ents[i].id || e.ns != ents[i].ns || math.Float64bits(e.v) != math.Float64bits(ents[i].v) || string(e.key) != ents[i].key {
				t.Fatalf("%s: entry %d decodes to %+v", name, i, e)
			}
		}
	}
}
