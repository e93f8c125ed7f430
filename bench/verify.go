package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"repro/internal/tsdb"
)

// A response is checked twice. Every response: status 200 and a
// non-empty body, before anything else. One in verifyOneIn, and every
// cursor page: decoded after its latency was recorded and compared
// point by point with the model. Under live ingest a response may hold
// more than the request's due time guarantees, so the comparison is
// "a gap-free prefix of the model's answer that reaches at least the
// floor": floor is the last tick the writer had acknowledged when the
// request fell due.

// jscan is a pull parser for the few JSON shapes the API serves. Every
// cursor page is decoded between two requests of its walker, on the two
// cores the server runs on, so the decoder's cost is load. Measured on
// that box: encoding/json into []struct{Key; Points []tsdb.Point} takes
// 4.4 ms a 5000-point page against the server's 8 ms of CPU for it, and
// with it export-cursor delivers 100 pages/s at 12.5 ms a page; jscan
// takes 1.05 ms, 150 pages/s at 10.5 ms. With the standard decoder the
// walkers measure the client.
type jscan struct {
	b []byte
	i int
}

var errJSON = errors.New("bench: malformed JSON")

func (s *jscan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\n', '\t', '\r':
			s.i++
		default:
			return
		}
	}
}

// peek returns the next non-space byte without consuming it, 0 at end.
func (s *jscan) peek() byte {
	s.ws()
	if s.i >= len(s.b) {
		return 0
	}
	return s.b[s.i]
}

func (s *jscan) eat(c byte) error {
	if s.peek() != c {
		return fmt.Errorf("%w: want %q at offset %d", errJSON, c, s.i)
	}
	s.i++
	return nil
}

// str reads a string. The API's strings (names, RFC 3339 times) hold no
// escapes; one that does is unquoted the slow way.
func (s *jscan) str() ([]byte, error) {
	if err := s.eat('"'); err != nil {
		return nil, err
	}
	start, escaped := s.i, false
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '"':
			s.i++
			if escaped {
				u, err := strconv.Unquote(string(s.b[start-1 : s.i]))
				return []byte(u), err
			}
			return s.b[start : s.i-1], nil
		case '\\':
			escaped = true
			s.i++
		}
		s.i++
	}
	return nil, errJSON
}

func (s *jscan) num() (float64, error) {
	s.ws()
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		if (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
		s.i++
	}
	return strconv.ParseFloat(string(s.b[start:s.i]), 64)
}

// array calls elem before each element of an array.
func (s *jscan) array(elem func() error) error {
	if err := s.eat('['); err != nil {
		return err
	}
	if s.peek() == ']' {
		s.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			return nil
		default:
			return fmt.Errorf("%w: array at offset %d", errJSON, s.i)
		}
	}
}

// object calls field with each member's name; field consumes the value.
func (s *jscan) object(field func(name []byte) error) error {
	if err := s.eat('{'); err != nil {
		return err
	}
	if s.peek() == '}' {
		s.i++
		return nil
	}
	for {
		name, err := s.str()
		if err != nil {
			return err
		}
		if err := s.eat(':'); err != nil {
			return err
		}
		if err := field(name); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return nil
		default:
			return fmt.Errorf("%w: object at offset %d", errJSON, s.i)
		}
	}
}

func (s *jscan) end() error {
	if s.peek() != 0 {
		return fmt.Errorf("%w: trailing bytes at offset %d", errJSON, s.i)
	}
	return nil
}

func (s *jscan) key() (tsdb.SeriesKey, error) {
	var k tsdb.SeriesKey
	err := s.object(func(name []byte) error {
		v, err := s.str()
		if err != nil {
			return err
		}
		switch {
		case bytes.EqualFold(name, []byte("dataset")):
			k.Dataset = string(v)
		case bytes.EqualFold(name, []byte("type")):
			k.Type = string(v)
		case bytes.EqualFold(name, []byte("region")):
			k.Region = string(v)
		case bytes.EqualFold(name, []byte("az")):
			k.AZ = string(v)
		}
		return nil
	})
	return k, err
}

// unixOf parses an RFC 3339 time to Unix seconds.
func unixOf(b []byte) (int64, error) {
	t, err := time.Parse(time.RFC3339Nano, string(b))
	return t.Unix(), err
}

// atValue reads one {"At":..,"Value":..} object (any letter case, extra
// members allowed through key).
func (s *jscan) atValue(onKey func() error) (at int64, v float64, err error) {
	err = s.object(func(name []byte) error {
		switch {
		case bytes.EqualFold(name, []byte("at")):
			b, err := s.str()
			if err != nil {
				return err
			}
			at, err = unixOf(b)
			return err
		case bytes.EqualFold(name, []byte("value")):
			v, err = s.num()
			return err
		case onKey != nil && bytes.EqualFold(name, []byte("key")):
			return onKey()
		}
		return fmt.Errorf("%w: unexpected member %q", errJSON, name)
	})
	return at, v, err
}

// scanQuery walks a /api/v1/query body: an array of {key, points}.
func scanQuery(body []byte, series func(tsdb.SeriesKey) error, point func(at int64, v float64) error) error {
	s := &jscan{b: body}
	err := s.array(func() error {
		return s.object(func(name []byte) error {
			switch {
			case bytes.EqualFold(name, []byte("key")):
				k, err := s.key()
				if err != nil {
					return err
				}
				return series(k)
			case bytes.EqualFold(name, []byte("points")):
				return s.array(func() error {
					at, v, err := s.atValue(nil)
					if err != nil {
						return err
					}
					return point(at, v)
				})
			}
			return fmt.Errorf("%w: unexpected member %q", errJSON, name)
		})
	})
	if err != nil {
		return err
	}
	return s.end()
}

// scanLatest walks a /api/v1/latest body: an array of {key, at, value}.
func scanLatest(body []byte, entry func(k tsdb.SeriesKey, at int64, v float64) error) error {
	s := &jscan{b: body}
	err := s.array(func() error {
		var k tsdb.SeriesKey
		at, v, err := s.atValue(func() (err error) { k, err = s.key(); return err })
		if err != nil {
			return err
		}
		return entry(k, at, v)
	})
	if err != nil {
		return err
	}
	return s.end()
}

func tickOf(at int64) (int, error) {
	d := at - epoch.Unix()
	step := int64(tickStep / time.Second)
	if d < 0 || d%step != 0 {
		return 0, fmt.Errorf("timestamp %s is not on a tick", time.Unix(at, 0).UTC().Format(time.RFC3339))
	}
	return int(d / step), nil
}

// streamCheck compares a stream of (series, point) with the model's raw
// points of the series list want, from tick from through tick to: every
// series in order, every stored point once. One streamCheck spans all
// the pages of a cursor walk.
type streamCheck struct {
	m        *model
	want     []int
	from, to int
	pos      int // index into want of the series being received; -1 before the first
	next     int // next tick of that series not yet accounted for
	points   int
	stale    *staleError // the first series that stopped short of the floor
}

func newStreamCheck(m *model, want []int, from, to int) *streamCheck {
	return &streamCheck{m: m, want: want, from: from, to: to, pos: -1}
}

// staleError says a response is faithful as far as it goes but stops
// short of the floor: every point it holds is the model's, the newest
// ones are not there. On a read-only store that is truncation. Under
// live ingest it is what a request sees when singleflight hands it a
// read that began before the request did; the run tolerates as many of
// these as the server reports coalesced requests, and no more.
type staleError struct {
	series     tsdb.SeriesKey
	have, want int // the newest tick held, the tick that had to be
}

func (e *staleError) Error() string {
	return fmt.Sprintf("series %s stops at tick %d, before tick %d", e.series, e.have, e.want)
}

// closeSeries notes whether the current series held every point through
// floor.
func (c *streamCheck) closeSeries(floor int) {
	if c.pos < 0 || c.stale != nil {
		return
	}
	j := c.want[c.pos]
	if t := c.m.nextStored(j, c.next, min(c.to, floor)); t >= 0 {
		c.stale = &staleError{series: c.m.keys[j], have: c.next - 1, want: t}
	}
}

func (c *streamCheck) series(k tsdb.SeriesKey, floor int) error {
	j, ok := c.m.index[k]
	if !ok {
		return fmt.Errorf("unknown series %s", k)
	}
	if c.pos >= 0 && c.want[c.pos] == j {
		return nil // the series continues on the next page
	}
	c.closeSeries(floor)
	// Series between the current one and j were skipped: legal only if
	// the model has nothing for them either.
	for c.pos++; c.pos < len(c.want) && c.want[c.pos] != j; c.pos++ {
		if t := c.m.nextStored(c.want[c.pos], c.from, min(c.to, floor)); t >= 0 {
			return fmt.Errorf("series %s missing", c.m.keys[c.want[c.pos]])
		}
	}
	if c.pos == len(c.want) {
		return fmt.Errorf("series %s is outside the filter or out of order", k)
	}
	c.next = c.from
	return nil
}

func (c *streamCheck) point(at int64, v float64) error {
	if c.pos < 0 {
		return errors.New("point before any series")
	}
	tick, err := tickOf(at)
	if err != nil {
		return err
	}
	j := c.want[c.pos]
	want := c.m.nextStored(j, c.next, c.to)
	if want != tick || float64(c.m.vals[j][tick]) != v {
		return fmt.Errorf("series %s: got (tick %d, %v), model's next point is tick %d", c.m.keys[j], tick, v, want)
	}
	c.next = tick + 1
	c.points++
	return nil
}

// finish checks nothing is missing after the last point received. A
// stream that is right as far as it goes but short of the floor yields a
// *staleError.
func (c *streamCheck) finish(floor int) error {
	c.closeSeries(floor)
	for c.pos++; c.pos < len(c.want); c.pos++ {
		if t := c.m.nextStored(c.want[c.pos], c.from, min(c.to, floor)); t >= 0 {
			return fmt.Errorf("series %s missing", c.m.keys[c.want[c.pos]])
		}
	}
	if c.stale != nil {
		return c.stale
	}
	return nil
}

// page feeds one response body of the stream.
func (c *streamCheck) page(body []byte, floor int) error {
	return scanQuery(body,
		func(k tsdb.SeriesKey) error { return c.series(k, floor) },
		c.point)
}

// verify compares one decoded response with the model. floor is the
// last tick that must be visible. It returns the points received.
func (m *model) verify(r *request, body []byte, floor int) (int, error) {
	want := m.match(r.typ, r.region)
	switch r.kind {
	case kindLatest:
		pos, n := 0, 0
		var stale *staleError
		err := scanLatest(body, func(k tsdb.SeriesKey, at int64, v float64) error {
			if pos == len(want) || m.keys[want[pos]] != k {
				return fmt.Errorf("latest: entry %d is %s, not the series the filter selects next", pos, k)
			}
			j := want[pos]
			pos++
			n++
			tick, err := tickOf(at)
			if err != nil {
				return err
			}
			if tick >= m.ticks() || !m.stored(j, tick) || float64(m.vals[j][tick]) != v {
				return fmt.Errorf("latest %s: (tick %d, %v) is not a point of the model", k, tick, v)
			}
			if must := m.lastStored(j, floor); tick < must && stale == nil {
				stale = &staleError{series: k, have: tick, want: must}
			}
			return nil
		})
		switch {
		case err == nil && pos != len(want):
			err = fmt.Errorf("latest: %d entries, want %d", pos, len(want))
		case err == nil && stale != nil:
			err = stale
		}
		return n, err
	case kindTrend:
		// Rollup buckets are finalized at seal time, so how far the tier
		// reaches is tsdb's business: each series must be a gap-free
		// prefix of the model's buckets, at least one bucket long.
		var cur []rollupPoint
		pos, got, n := -1, 0, 0
		closeSeries := func() error {
			if pos >= 0 && got == 0 && len(cur) > 0 {
				return fmt.Errorf("trend %s: no buckets", m.keys[want[pos]])
			}
			return nil
		}
		err := scanQuery(body, func(k tsdb.SeriesKey) error {
			if err := closeSeries(); err != nil {
				return err
			}
			pos++
			if pos >= len(want) || m.keys[want[pos]] != k {
				return fmt.Errorf("trend: series %s out of order or outside the filter", k)
			}
			cur, got = m.rollup1h(want[pos], r.fromTick/ticksPerHour, r.toTick/ticksPerHour), 0
			return nil
		}, func(at int64, v float64) error {
			if got >= len(cur) {
				return fmt.Errorf("trend %s: more buckets than the model", m.keys[want[pos]])
			}
			w := cur[got]
			if at != epoch.Unix()+int64(w.hour)*3600 || math.Abs(v-w.mean) > 1e-9 {
				return fmt.Errorf("trend %s: bucket %d is (%d, %v), model has (hour %d, %v)", m.keys[want[pos]], got, at, v, w.hour, w.mean)
			}
			got++
			n++
			return nil
		})
		if err == nil {
			err = closeSeries()
		}
		if err == nil && pos != len(want)-1 {
			err = fmt.Errorf("trend: %d series, want %d", pos+1, len(want))
		}
		return n, err
	default:
		c := newStreamCheck(m, want, r.fromTick, r.toTick)
		if err := c.page(body, floor); err != nil {
			return c.points, err
		}
		return c.points, c.finish(floor)
	}
}

// present counts how many of the model's points of the series list,
// ticks from through through, the body holds with the right value: the
// recovered share, where verify only says whether it is all of them.
func (m *model) present(series []int, body []byte, from, through int) (expected, found int, err error) {
	for _, j := range series {
		for t := m.nextStored(j, from, through); t >= 0; t = m.nextStored(j, t+1, through) {
			expected++
		}
	}
	j, last := -1, -1
	err = scanQuery(body, func(k tsdb.SeriesKey) error {
		var ok bool
		if j, ok = m.index[k]; !ok {
			j = -1
		}
		last = -1
		return nil
	}, func(at int64, v float64) error {
		tick, err := tickOf(at)
		if err != nil || j < 0 || tick <= last || tick < from || tick > through {
			return nil
		}
		last = tick
		if m.stored(j, tick) && float64(m.vals[j][tick]) == v {
			found++
		}
		return nil
	})
	return expected, found, err
}

// gunzipper inflates response bodies, reusing its state.
type gunzipper struct {
	zr  *gzip.Reader
	out bytes.Buffer
}

// inflate returns the decoded body; the result is valid until the next
// call.
func (g *gunzipper) inflate(body []byte, gzipped bool) ([]byte, error) {
	if !gzipped {
		return body, nil
	}
	var err error
	if g.zr == nil {
		g.zr, err = gzip.NewReader(bytes.NewReader(body))
	} else {
		err = g.zr.Reset(bytes.NewReader(body))
	}
	if err != nil {
		return nil, err
	}
	g.out.Reset()
	if _, err := io.Copy(&g.out, g.zr); err != nil {
		return nil, err
	}
	return g.out.Bytes(), nil
}
