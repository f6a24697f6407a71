package storage

import "sort"

// DeleteIndex answers "is a point written at version v and timestamp t
// covered by any delete with a larger version?" in O(log D) after an
// O(D log D) build. It is the analogue of the CPU-efficient delete sort
// IoTDB applies during merges (reference [1] of the paper): since the
// covering condition only depends on the *maximum* version among deletes
// covering t, the time axis is swept once into segments carrying that
// maximum.
type DeleteIndex struct {
	bounds []int64   // segment start positions, sorted
	maxVer []Version // max delete version covering [bounds[i], bounds[i+1])
}

// NewDeleteIndex builds the index over a set of deletes (order free).
func NewDeleteIndex(deletes []Delete) *DeleteIndex {
	type event struct {
		at    int64
		ver   Version
		start bool
	}
	events := make([]event, 0, 2*len(deletes))
	for _, d := range deletes {
		if d.End < d.Start {
			continue
		}
		events = append(events, event{at: d.Start, ver: d.Version, start: true})
		// Closed range: the delete stops covering at End+1. Guard the
		// int64 edge; a delete ending at MaxInt64 never expires.
		if d.End != int64(^uint64(0)>>1) {
			events = append(events, event{at: d.End + 1, ver: d.Version, start: false})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })

	ix := &DeleteIndex{}
	active := map[Version]int{}
	maxActive := func() Version {
		var m Version
		for v := range active {
			if v > m {
				m = v
			}
		}
		return m
	}
	for i := 0; i < len(events); {
		at := events[i].at
		for i < len(events) && events[i].at == at {
			e := events[i]
			if e.start {
				active[e.ver]++
			} else {
				active[e.ver]--
				if active[e.ver] == 0 {
					delete(active, e.ver)
				}
			}
			i++
		}
		ix.bounds = append(ix.bounds, at)
		ix.maxVer = append(ix.maxVer, maxActive())
	}
	return ix
}

// Covered reports whether timestamp t is covered by any delete with a
// version strictly larger than ver.
func (ix *DeleteIndex) Covered(t int64, ver Version) bool {
	i := sort.Search(len(ix.bounds), func(i int) bool { return ix.bounds[i] > t }) - 1
	if i < 0 {
		return false
	}
	return ix.maxVer[i] > ver
}

// Cursor returns a DeleteCursor answering Covered(·, ver) for timestamps
// visited in ascending order, positioned with one binary search at t0, the
// first timestamp it will be asked about.
func (ix *DeleteIndex) Cursor(t0 int64, ver Version) DeleteCursor {
	i := sort.Search(len(ix.bounds), func(i int) bool { return ix.bounds[i] > t0 }) - 1
	return DeleteCursor{ix: ix, ver: ver, i: i}
}

// DeleteCursor walks a DeleteIndex forward: a scan over a sorted run of
// points advances it segment by segment instead of searching per point.
type DeleteCursor struct {
	ix  *DeleteIndex
	ver Version
	i   int // segment of the last timestamp asked about; -1 before the first
}

// Covered is DeleteIndex.Covered(t, ver) for a t no smaller than the
// cursor's previous timestamp.
func (c *DeleteCursor) Covered(t int64) bool {
	b := c.ix.bounds
	for c.i+1 < len(b) && b[c.i+1] <= t {
		c.i++
	}
	return c.i >= 0 && c.ix.maxVer[c.i] > c.ver
}
