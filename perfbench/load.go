package main

import (
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// schedule is an open-loop request plan: request i is due at Due[i] after
// the phase starts and asks for key Keys[i].
type schedule struct {
	Due  []time.Duration
	Keys []int
}

// poissonSchedule draws Poisson arrivals at rate per second for dur, each
// keyed by key().
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration, key func() int) schedule {
	var s schedule
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return s
		}
		s.Due = append(s.Due, d)
		s.Keys = append(s.Keys, key())
	}
}

// outcome is one request's fate. Latency is timed from when the request
// was due, so a stall delays and charges every request queued behind it;
// Late is how long after its due time the generator sent it.
type outcome struct {
	Lat  time.Duration
	Late time.Duration
	OK   bool // transport success, status 200 and a correct body
	Code int  // HTTP status, 0 when the transport failed
}

// openLoop sends s with at most workers requests in flight. Workers take
// requests in due order and never skip one: when every worker is busy the
// backlog waits and its latency keeps counting from the due time.
func openLoop(s schedule, workers int, send func(i, key int) (code int, ok bool)) []outcome {
	out := make([]outcome, len(s.Due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.Due) {
					return
				}
				due := start.Add(s.Due[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				code, ok := send(i, s.Keys[i])
				out[i] = outcome{Lat: time.Since(due), Late: sent.Sub(due), OK: ok, Code: code}
			}
		}()
	}
	wg.Wait()
	return out
}

// phaseStats summarises one open-loop phase.
type phaseStats struct {
	Sent, OK, Failed, Shed, WithinLimit int       // Shed: the 429s among Failed
	Lats                                []float64 // ms, successful requests
	LateP99, LateMax                    float64   // ms
	Backlog                             bool
}

func summarise(outs []outcome, limit time.Duration) phaseStats {
	st := phaseStats{Sent: len(outs)}
	late := make([]float64, 0, len(outs))
	for _, o := range outs {
		l := float64(o.Late) / 1e6
		late = append(late, l)
		if l > st.LateMax {
			st.LateMax = l
		}
		if !o.OK {
			st.Failed++
			if o.Code == http.StatusTooManyRequests {
				st.Shed++
			}
			continue
		}
		st.OK++
		st.Lats = append(st.Lats, float64(o.Lat)/1e6)
		if o.Lat <= limit {
			st.WithinLimit++
		}
	}
	if len(late) > 0 {
		sort.Float64s(late)
		st.LateP99 = quantile(late, 99)
	}
	st.Backlog = backlogGrowing(outs, limit)
	return st
}

// backlogGrowing reports whether the generator fell further behind over a
// phase: the mean lateness of the last tenth of requests exceeds that of
// the first tenth by more than half the latency limit. A backlog that
// grows for the whole step would blow the limit given a longer step, so
// the rate is not sustainable even if this step's requests met it.
func backlogGrowing(outs []outcome, limit time.Duration) bool {
	n := len(outs) / 10
	if n == 0 {
		return false
	}
	var first, last time.Duration
	for i := 0; i < n; i++ {
		first += outs[i].Late
		last += outs[len(outs)-n+i].Late
	}
	return (last-first)/time.Duration(n) > limit/2
}

// sustained reports whether a ladder step meets the goodput rule: at least
// 99% of sent requests succeed within the limit and the backlog is not
// growing. Failed requests count against the limit.
func (st phaseStats) sustained() bool {
	return st.Sent > 0 && float64(st.WithinLimit) >= 0.99*float64(st.Sent) && !st.Backlog
}
