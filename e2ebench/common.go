package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"infosleuth/internal/relational"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/transport"
)

// loopback is the listen address every agent binds: loopback TCP on a
// free port.
const loopback = "tcp://127.0.0.1:0"

// mix returns the k-th pseudo-random word of operation i under seed
// (splitmix64 over the three). Deriving every input from (seed, i, k)
// makes operation i the same whichever goroutine sends it and however
// long the run is.
func mix(seed int64, i, k uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ i*0xbf58476d1ce4e5b9 ^ k*0x94d049bb133111eb
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a uniform float in [0, 1) from mix.
func unit(seed int64, i, k uint64) float64 {
	return float64(mix(seed, i, k)>>11) / (1 << 53)
}

// between returns a uniform integer in [lo, hi).
func between(seed int64, i, k uint64, lo, hi int) int {
	return lo + int(mix(seed, i, k)%uint64(hi-lo))
}

// traced returns ctx tagged with operation i's trace ID while the tracer
// is on and the workload tags its operations, so the program threads the
// ID through every agent the operation reaches.
func traced(ctx context.Context, t *tracer, seed int64, i int) (context.Context, string) {
	if !t.on.Load() || !t.tagIDs {
		return ctx, ""
	}
	id := strconv.FormatUint(mix(seed, uint64(i), 0x7ace), 16)
	return telemetry.WithTraceID(ctx, id), id
}

// tcp returns a TCP transport for one agent, wrapped for tracing under
// the agent's layer name. The transport is one no agent of the live
// community uses: a new one, or one a closed community left (see
// tracer.forget).
func tcp(t *tracer, layer string) *tracedTransport {
	t.mu.Lock()
	if t.used == len(t.tcps) {
		t.tcps = append(t.tcps, &transport.TCP{})
	}
	inner := t.tcps[t.used]
	t.used++
	t.mu.Unlock()
	return &tracedTransport{inner: inner, t: t, layer: layer}
}

// canonicalRows renders result rows as sorted strings so two answers
// compare as multisets.
func canonicalRows(rows []relational.Row) []string {
	out := make([]string, len(rows))
	var b strings.Builder
	for i, r := range rows {
		b.Reset()
		for j, v := range r {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// sameAnswer reports whether two results hold the same columns and the
// same rows in any order.
func sameAnswer(gotCols, wantCols []string, got, want []relational.Row) error {
	if len(gotCols) != len(wantCols) {
		return fmt.Errorf("columns %v, want %v", gotCols, wantCols)
	}
	for i := range gotCols {
		if !strings.EqualFold(gotCols[i], wantCols[i]) {
			return fmt.Errorf("columns %v, want %v", gotCols, wantCols)
		}
	}
	g, w := canonicalRows(got), canonicalRows(want)
	if len(g) != len(w) {
		return fmt.Errorf("%d rows, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("row %q, want %q", g[i], w[i])
		}
	}
	return nil
}
