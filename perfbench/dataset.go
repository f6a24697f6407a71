package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"m4lsm/internal/lsm"
	"m4lsm/internal/series"
	"m4lsm/internal/workload"
)

// Dataset shape. A load round writes roundPoints points per series, the
// batch size m4cli load uses; the engine's default flush threshold cuts
// them into chunks of 1000.
const (
	baseTime    = int64(1_700_000_000_000)
	roundPoints = 4096
	// After every gapEvery points comes a transmission gap of gapMinMs
	// to gapMinMs+gapSpreadMs: the series arrive in 256 ms bursts at 1 ms
	// spacing, so range boundaries fall both inside data and inside gaps.
	// The gaps stretch each series to about 290 s, past the 262 s at which
	// the rollup pyramid coarsens its base cells from 16 to 32 ms, so the
	// writing workloads can append about 230 s per series before the next
	// coarsening at 524 s changes the stored layout under them.
	gapEvery    = 256
	gapMinMs    = 750
	gapSpreadMs = 250
	// oooShare of (series, round) pairs hold back every other point and
	// write it two rounds later. The late points land in unsequence
	// chunks interleaved with the flushed sequence chunks, the overlapped
	// storage shape M4-LSM's candidate verification exists for.
	oooShare = 0.10
	// Each series gets deletesPerSeries range deletes of 20-400 ms over
	// data already flushed when the delete is issued.
	deletesPerSeries = 3
)

func seriesID(i int) string { return fmt.Sprintf("root.dash.s%02d", i) }

// presetName names the preset series i draws its values from.
func presetName(i int) string {
	presets := workload.Presets()
	return presets[i%len(presets)].Name
}

// delOp is one range delete, issued before its round's batch.
type delOp struct {
	series, round int
	start, end    int64 // closed range
}

// dataset is the seeded load plan and the answer it must produce.
type dataset struct {
	ids     []string
	rounds  [][]lsm.BatchEntry
	deletes [][]delOp
	// expected holds every live point per series after the load, sorted.
	expected []series.Series
	// start and end bound the loaded data: [start, end). Appends begin
	// at end for every series.
	start, end int64
	points     int // live points after deletes
}

// genDataset builds the load plan for nSeries series of nPoints points.
// Series i draws its values from the i%4-th paper preset at 1 ms spacing.
func genDataset(seed int64, nSeries, nPoints int) *dataset {
	presets := workload.Presets()
	nRounds := (nPoints + roundPoints - 1) / roundPoints
	d := &dataset{
		ids:      make([]string, nSeries),
		rounds:   make([][]lsm.BatchEntry, nRounds),
		deletes:  make([][]delOp, nRounds),
		expected: make([]series.Series, nSeries),
		start:    baseTime,
	}
	late := make([][]lsm.BatchEntry, nRounds) // held-back points, written first in their round
	for i := 0; i < nSeries; i++ {
		id := seriesID(i)
		d.ids[i] = id
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		p := presets[i%len(presets)]
		data := make(series.Series, nPoints)
		t, v := baseTime, 0.0
		for j := range data {
			v = p.Value(rng, j, v)
			data[j] = series.Point{T: t, V: v}
			t++
			if (j+1)%gapEvery == 0 {
				t += gapMinMs + rng.Int63n(gapSpreadMs+1)
			}
		}
		if end := data[len(data)-1].T + 1; end > d.end {
			d.end = end
		}

		// writeRound[j] is the round in whose batch point j is written.
		writeRound := make([]int, nPoints)
		for r := 0; r < nRounds; r++ {
			lo, hi := r*roundPoints, min((r+1)*roundPoints, nPoints)
			slice := data[lo:hi]
			if r >= 1 && r+2 < nRounds && rng.Float64() < oooShare {
				var even, odd series.Series
				for k, pt := range slice {
					if k%2 == 0 {
						even = append(even, pt)
						writeRound[lo+k] = r
					} else {
						odd = append(odd, pt)
						writeRound[lo+k] = r + 2
					}
				}
				d.rounds[r] = append(d.rounds[r], lsm.BatchEntry{SeriesID: id, Points: even})
				late[r+2] = append(late[r+2], lsm.BatchEntry{SeriesID: id, Points: odd})
				continue
			}
			for k := range slice {
				writeRound[lo+k] = r
			}
			d.rounds[r] = append(d.rounds[r], lsm.BatchEntry{SeriesID: id, Points: slice})
		}

		// A delete issued in round rd removes the points written in
		// earlier rounds; points written in rd or later survive it.
		var dels []delOp
		if nRounds > 3 {
			for k := 0; k < deletesPerSeries; k++ {
				rd := 3 + rng.Intn(nRounds-3)
				j := rng.Intn((rd - 1) * roundPoints)
				a := data[j].T
				del := delOp{series: i, round: rd, start: a, end: a + 20 + rng.Int63n(381)}
				d.deletes[rd] = append(d.deletes[rd], del)
				dels = append(dels, del)
			}
		}
		live := make(series.Series, 0, nPoints)
		for j, pt := range data {
			deleted := false
			for _, del := range dels {
				if pt.T >= del.start && pt.T <= del.end && del.round > writeRound[j] {
					deleted = true
					break
				}
			}
			if !deleted {
				live = append(live, pt)
			}
		}
		d.expected[i] = live
		d.points += len(live)
	}
	for r := range d.rounds {
		d.rounds[r] = append(late[r], d.rounds[r]...)
	}
	return d
}

// load writes the plan through the m4cli bulk-load path: one WriteBatch
// plus an explicit Flush per round, deletes issued before their round.
// The explicit flush pins every round's chunk boundaries, so the chunks
// (and every per-query count derived from them) repeat exactly for a
// seed, whatever batching the ingest workers chose; only how chunks group
// into files, and so a few bytes of file framing, can vary.
func (d *dataset) load(e *lsm.Engine) error {
	for r := range d.rounds {
		for _, del := range d.deletes[r] {
			if err := e.Delete(d.ids[del.series], del.start, del.end); err != nil {
				return fmt.Errorf("load round %d delete: %w", r, err)
			}
		}
		if err := writeBatchRetry(e, d.rounds[r]); err != nil {
			return fmt.Errorf("load round %d: %w", r, err)
		}
		if err := e.Flush(); err != nil {
			return fmt.Errorf("load round %d flush: %w", r, err)
		}
	}
	return nil
}

// writeBatchRetry retries engine backpressure the way m4cli load does.
func writeBatchRetry(e *lsm.Engine, entries []lsm.BatchEntry) error {
	for {
		err := e.WriteBatch(entries...)
		if !errors.Is(err, lsm.ErrIngestBackpressure) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// appendValue is the value written at time t of series i by the ingest
// and live writers: a deterministic function of (seed, series, t), so the
// read-back check knows every acknowledged point without storing it.
func appendValue(seed int64, i int, t int64) float64 {
	h := splitmix64(uint64(seed)<<20 ^ uint64(i)<<48 ^ uint64(t))
	noise := float64(h>>11)/float64(1<<53)*2 - 1
	return math.Round((50+25*math.Sin(float64(t)/5000)+noise)*1e6) / 1e6
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
