package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Operation kinds a workload reports latencies under.
const (
	kindPrimary = iota // search, Submit or InsertRow
	kindSide           // advertise/unadvertise, a planner-rewritten Submit, or a notification
	numKinds
)

// result is what one operation reports to the load generator: its
// latency, measured from its due time, under the primary or the side
// kind, and whether it failed.
type result struct {
	primary, side time.Duration
	hasPrimary    bool
	hasSide       bool
	failed        bool
}

// rig is one built community plus the workload's client-side state.
type rig interface {
	// op executes operation i of the seeded sequence, due at due. When
	// wait is set it returns only once every asynchronous effect of the
	// operation has completed (the closed loop).
	op(ctx context.Context, i int, due time.Time, wait bool) result
	// settle waits for the asynchronous effects of every operation sent
	// so far, returning their latency samples and the operations that
	// failed to complete, since the previous settle.
	settle(ctx context.Context) (side []time.Duration, failed int)
	// verify checks the answers recorded since the previous verify
	// against the workload's oracle and returns how many were wrong. It
	// runs outside the timed phases.
	verify() (wrong int)
	// release drops the client-side state the oracle keeps, so the live
	// heap measured afterwards is the community's. Only close may follow.
	release()
	close()
}

// phaseStats summarizes one phase of the load generator.
type phaseStats struct {
	ops     int
	failed  int
	elapsed time.Duration
	cpu     time.Duration
	lat     [numKinds][]float64 // milliseconds
	late    []float64           // milliseconds behind schedule at send
}

func (p *phaseStats) merge(o *phaseStats) {
	p.ops += o.ops
	p.failed += o.failed
	for k := range p.lat {
		p.lat[k] = append(p.lat[k], o.lat[k]...)
	}
	p.late = append(p.late, o.late...)
}

func (p *phaseStats) add(r result) {
	p.ops++
	if r.failed {
		p.failed++
	}
	if r.hasPrimary {
		p.lat[kindPrimary] = append(p.lat[kindPrimary], ms(r.primary))
	}
	if r.hasSide {
		p.lat[kindSide] = append(p.lat[kindSide], ms(r.side))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// openLoop sends operations first..first+n-1 at a fixed rate from at
// most senders goroutines. Operation i is due at start + (i-first)/rate
// whether or not earlier ones have completed; its latency counts from
// that due time, so a stall shows in every operation queued behind it.
func openLoop(ctx context.Context, r rig, first, n int, rate float64, senders int) *phaseStats {
	var next atomic.Int64
	out := make([]*phaseStats, senders)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	for s := 0; s < senders; s++ {
		st := &phaseStats{}
		out[s] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				st.late = append(st.late, ms(time.Since(due)))
				st.add(r.op(ctx, first+k, due, false))
			}
		}()
	}
	wg.Wait()
	total := &phaseStats{}
	for _, st := range out {
		total.merge(st)
	}
	side, failed := r.settle(ctx)
	for _, d := range side {
		total.lat[kindSide] = append(total.lat[kindSide], ms(d))
	}
	total.failed += failed
	total.elapsed = time.Since(start)
	total.cpu = cpuTime() - cpu0
	return total
}

// closedLoop runs callers goroutines that each send their next
// operation as soon as the previous one has completed, for dur. The
// elapsed time includes waiting for the last operations to complete.
func closedLoop(ctx context.Context, r rig, first int, dur time.Duration, callers int) *phaseStats {
	var next atomic.Int64
	out := make([]*phaseStats, callers)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < callers; c++ {
		st := &phaseStats{}
		out[c] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				st.add(r.op(ctx, first+k, time.Now(), true))
			}
		}()
	}
	wg.Wait()
	total := &phaseStats{}
	for _, st := range out {
		total.merge(st)
	}
	_, failed := r.settle(ctx)
	total.failed += failed
	total.elapsed = time.Since(start)
	total.cpu = cpuTime() - cpu0
	return total
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}
