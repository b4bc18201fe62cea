package main

import (
	"sync"
	"time"
)

// sample is one generated read.
type sample struct {
	latMs  float64 // from the request's due time to its body's last byte
	lateMs float64 // how late the scheduler handed the request out (open loop)
	doneMs float64 // completion time since the loop started (closed loop)
	wire   int64   // response bytes on the wire
	ok     bool
}

// doFunc performs request i on client c and reports the wire bytes it
// took and whether it succeeded (2xx, body read, body correct).
type doFunc func(c *client, i int) (wire int64, ok bool)

// openLoop sends n requests at rate per second on a fixed timetable.
// The calling goroutine is the only scheduler: it hands each request
// out at its due time whether or not the earlier ones finished, and
// len(cs) workers, one connection each, send them. A request waiting
// for a free connection is still timed from its due time, so a stall
// raises the latency of everything queued behind it.
func openLoop(cs []*client, n int, rate float64, do doFunc) []sample {
	out := make([]sample, n)
	due := make([]time.Time, n)
	// Sized to the number of sends so the scheduler never blocks on a
	// busy system; the queue is where a stall shows up.
	jobs := make(chan int, n)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := range jobs {
				wire, ok := do(c, i)
				out[i].latMs = msSince(due[i])
				out[i].wire, out[i].ok = wire, ok
			}
		}(c)
	}
	start := time.Now().Add(2 * time.Millisecond)
	for i := 0; i < n; i++ {
		due[i] = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		out[i].lateMs = msSince(due[i])
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// closedLoop runs len(cs) workers, each sending its next request as
// soon as the previous one completes, until d has passed. Worker w
// sends requests w, w+len(cs), w+2·len(cs), … of the sequence (mod n).
// It returns the samples (latency from send) and the wall time the
// loop took.
func closedLoop(cs []*client, d time.Duration, n int, do doFunc) ([]sample, time.Duration) {
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w, c := range cs {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			var mine []sample
			for k := w; time.Now().Before(deadline); k += len(cs) {
				t0 := time.Now()
				wire, ok := do(c, k%n)
				mine = append(mine, sample{latMs: msSince(t0), doneMs: msSince(start), wire: wire, ok: ok})
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(w, c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// rateWindow is the interval closed-loop throughput is counted over.
const rateWindow = 250 * time.Millisecond

// medianRate is a closed loop's throughput: the median of its
// windowRates, so a burst of interference from outside the benchmark
// moves one interval, not the result.
func medianRate(ss []sample, d time.Duration) float64 {
	return median(windowRates(ss, d))
}

// windowRates returns the completions per second of a closed loop of
// duration d in each whole rateWindow interval, or the overall rate
// when d is shorter than one interval.
func windowRates(ss []sample, d time.Duration) []float64 {
	n := int(d / rateWindow)
	if n == 0 {
		return []float64{float64(len(ss)) / d.Seconds()}
	}
	rates := make([]float64, n)
	winMs := float64(rateWindow) / float64(time.Millisecond)
	for _, s := range ss {
		if i := int(s.doneMs / winMs); i < n {
			rates[i]++
		}
	}
	for i := range rates {
		rates[i] /= rateWindow.Seconds()
	}
	return rates
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// column extracts one field of every sample.
func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// meanWireKB is the mean response size on the wire in KiB.
func meanWireKB(ss []sample) float64 {
	var total float64
	for _, s := range ss {
		total += float64(s.wire)
	}
	return ratio(total, float64(len(ss))) / 1024
}
