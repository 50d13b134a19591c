package main

// The open-loop load generator. Arrivals are Poisson at a fixed rate and
// their schedule is drawn before the clock starts; every request is
// timed from the moment it was due, so a stall in the server or in the
// generator itself delays every later request's clock too. A refused
// request (wire.ErrBusy) is a failure and is never retried.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"cryptonn/internal/wire"
)

// arrival is one scheduled request: its offset from the phase start and
// the input it carries.
type arrival struct {
	at    time.Duration
	input int
}

// schedule draws round(rate·dur) arrival times uniformly over dur and
// sorts them: a Poisson process at the given rate, conditioned on its
// count, so every run of a phase offers exactly the same number of
// requests. Inputs are bound to the arrivals separately.
func schedule(rng *rand.Rand, rate float64, dur time.Duration) []arrival {
	out := make([]arrival, int(math.Round(rate*dur.Seconds())))
	for i := range out {
		out[i].at = time.Duration(rng.Int63n(int64(dur)))
	}
	slices.SortFunc(out, func(a, b arrival) int { return int(a.at - b.at) })
	return out
}

// reqResult is one request's outcome.
type reqResult struct {
	due, sent, done time.Time
	err             error
}

// latency is the request's time from due to done.
func (r reqResult) latency() time.Duration { return r.done.Sub(r.due) }

// sendFunc issues one request over a connection and checks its answer.
type sendFunc func(ctx context.Context, cc *wire.ClientConn, input int) error

// runOpenLoop fires the arrivals at their due times, spreading them
// round-robin over the connections, and waits for every answer. Each
// request in flight holds one goroutine blocked on its pipelined
// connection; the schedule itself is walked by the calling goroutine.
func runOpenLoop(ctx context.Context, arrivals []arrival, conns []*wire.ClientConn, timeout time.Duration, send sendFunc) []reqResult {
	res := make([]reqResult, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for i, a := range arrivals {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			rctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			sent := time.Now()
			err := send(rctx, conns[i%len(conns)], a.input)
			res[i] = reqResult{due: due, sent: sent, done: time.Now(), err: err}
		}(i, a, due)
	}
	wg.Wait()
	return res
}

// phaseStats summarizes one open-loop phase.
type phaseStats struct {
	requests   int
	failed     int
	p50        time.Duration
	tail       time.Duration
	tailPct    float64 // the percentile tail reports
	lateTail   time.Duration
	completed  float64       // answered requests per second of segment span (first due to last answer)
	drain      time.Duration // longest last-due-to-last-answer time of a segment
	mismatches int
}

// tailPercentiles are the candidate tail percentiles, highest first;
// a phase reports the highest one with at least ten samples beyond it.
var tailPercentiles = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

// pickTail returns the highest candidate percentile with at least ten
// of n samples beyond it (50 when n is too small for any).
func pickTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile (nearest rank) of sorted xs.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// summarize computes a phase's statistics over its segments (runs of
// the generator at the phase's rate); a failed request counts as missing
// any latency limit, so it sorts as an infinite latency.
func summarize(segments [][]reqResult) phaseStats {
	var st phaseStats
	var lats, lates []time.Duration
	var answered int
	var span time.Duration
	for _, seg := range segments {
		var firstDue, lastDue, lastDone time.Time
		for _, r := range seg {
			if firstDue.IsZero() || r.due.Before(firstDue) {
				firstDue = r.due
			}
			lastDue = maxTime(lastDue, r.due)
			lastDone = maxTime(lastDone, r.done)
			lates = append(lates, r.sent.Sub(r.due))
			if r.err != nil {
				st.failed++
				if errors.Is(r.err, errMismatch) {
					st.mismatches++
				}
				lats = append(lats, time.Duration(math.MaxInt64))
				continue
			}
			answered++
			lats = append(lats, r.latency())
		}
		span += lastDone.Sub(firstDue)
		st.drain = max(st.drain, lastDone.Sub(lastDue))
	}
	slices.Sort(lats)
	slices.Sort(lates)
	st.requests = len(lats)
	st.tailPct = pickTail(len(lats))
	st.p50 = percentile(lats, 50)
	st.tail = percentile(lats, st.tailPct)
	st.lateTail = percentile(lates, st.tailPct)
	st.completed = float64(answered) / span.Seconds()
	return st
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// meets reports whether a phase met the latency limit with no failures
// and no growing backlog: the tail is within the limit and the last
// answer arrived within the limit of the last request's due time.
func (st phaseStats) meets(limit time.Duration) bool {
	return st.failed == 0 && st.tail <= limit && st.drain <= limit
}
