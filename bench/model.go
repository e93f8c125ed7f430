package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/catalog"
	"repro/internal/tsdb"
)

// model is the generator's own copy of the truth: every series' value at
// every tick, derived from the seed alone. The archive is built from it,
// the live writer continues it, and every checked response is compared
// with it. It holds one byte per (series, tick), not the archive.
type model struct {
	seed    uint64
	cat     *catalog.Catalog
	keys    []tsdb.SeriesKey // canonical order, the order the API serves
	index   map[tsdb.SeriesKey]int
	types   []string // catalog order: rank 0 is the most requested
	regions []string
	vals    [][]uint8 // [series][tick], 1..10
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newModel lays out the 1600 series over catalog.Standard() — its first
// 40 types, its ten regions with at least four AZs, four AZs each — and
// fills ticks ticks of values.
func newModel(seed uint64, ticks int) *model {
	m := &model{seed: seed, cat: catalog.Standard(), index: make(map[tsdb.SeriesKey]int, nSeries)}
	for _, t := range m.cat.Types()[:nTypes] {
		m.types = append(m.types, t.Name)
	}
	for _, r := range m.cat.Regions() {
		if len(r.AZs) < nAZs || len(m.regions) == nRegions {
			continue
		}
		m.regions = append(m.regions, r.Code)
		for _, t := range m.types {
			for _, az := range r.AZs[:nAZs] {
				m.keys = append(m.keys, tsdb.SeriesKey{Dataset: dataset, Type: t, Region: r.Code, AZ: az})
			}
		}
	}
	if len(m.keys) != nSeries {
		panic(fmt.Sprintf("bench: catalog yields %d series, want %d", len(m.keys), nSeries))
	}
	sort.Slice(m.keys, func(a, b int) bool { return m.keys[a].String() < m.keys[b].String() })
	m.vals = make([][]uint8, nSeries)
	streams := m.streams()
	for j, k := range m.keys {
		m.index[k] = j
		row := make([]uint8, ticks)
		for i := range row {
			row[i] = streams[j].next()
		}
		m.vals[j] = row
	}
	return m
}

// valueStream steps one series' value from tick to tick. The model's
// rows are filled from it, and the live writer continues it without
// holding any rows.
type valueStream struct {
	state uint64
	v     uint8 // 0 before tick 0
}

func (s *valueStream) next() uint8 {
	switch r := splitmix(&s.state); {
	case s.v == 0:
		s.v = uint8(1 + r%10)
	case r%changeOneIn == 0:
		// Always a different value, so "changed" and "stored by
		// AppendBatchIfChanged" are the same ticks.
		s.v = 1 + (s.v-1+1+uint8((r>>16)%9))%10
	}
	return s.v
}

// streams returns every series' value stream, positioned before tick 0.
func (m *model) streams() []valueStream {
	out := make([]valueStream, len(m.keys))
	for j, k := range m.keys {
		h := fnv.New64a()
		_, _ = h.Write([]byte(k.String()))
		out[j].state = m.seed ^ h.Sum64()
	}
	return out
}

func (m *model) ticks() int { return len(m.vals[0]) }

func (m *model) stored(j, i int) bool { return i == 0 || m.vals[j][i] != m.vals[j][i-1] }

// nextStored returns the first tick at or after i, and no later than
// last, at which series j stored a point, or -1.
func (m *model) nextStored(j, i, last int) int {
	if i < 0 {
		i = 0
	}
	for ; i <= last && i < m.ticks(); i++ {
		if m.stored(j, i) {
			return i
		}
	}
	return -1
}

// lastStored returns the last tick at or before i at which series j
// stored a point. Tick 0 always stores, so one exists.
func (m *model) lastStored(j, i int) int {
	for ; i > 0; i-- {
		if m.stored(j, i) {
			return i
		}
	}
	return 0
}

// match returns the series a type and/or region filter selects (-1
// matches all), in serving order.
func (m *model) match(typ, region int) []int {
	var out []int
	for j, k := range m.keys {
		if (typ < 0 || k.Type == m.types[typ]) && (region < 0 || k.Region == m.regions[region]) {
			out = append(out, j)
		}
	}
	return out
}

// digest identifies the archive a seed builds: keys and every value.
func (m *model) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(m.ticks()))
	_, _ = h.Write(b[:])
	for j, k := range m.keys {
		_, _ = h.Write([]byte(k.String()))
		_, _ = h.Write(m.vals[j])
	}
	return h.Sum64()
}

type rollupPoint struct {
	hour int // hours since epoch
	mean float64
}

// rollup1h returns series j's 1h mean buckets with a start in
// [fromHr, toHr]: one per hour that stored a point, the mean of the
// points stored in it summed in time order, as tsdb builds them.
func (m *model) rollup1h(j, fromHr, toHr int) []rollupPoint {
	var out []rollupPoint
	for h := fromHr; h <= toHr; h++ {
		sum, n := 0.0, 0
		for i := h * ticksPerHour; i < (h+1)*ticksPerHour && i < m.ticks(); i++ {
			if m.stored(j, i) {
				sum += float64(m.vals[j][i])
				n++
			}
		}
		if n > 0 {
			out = append(out, rollupPoint{hour: h, mean: sum / float64(n)})
		}
	}
	return out
}
