package main

import (
	"testing"

	"infosleuth/internal/kqml"
)

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}, {70, 75}}, 100 - 10 - 20 - 5},
		{"nested", []interval{{10, 60}, {20, 30}, {25, 28}}, 100 - 50},
		{"overlapping parallel", []interval{{10, 40}, {20, 50}, {30, 45}}, 100 - 40},
		{"parallel and disjoint", []interval{{0, 30}, {10, 20}, {60, 80}, {70, 100}}, 100 - 30 - 40},
		{"clipped to parent", []interval{{-10, 10}, {90, 120}}, 100 - 10 - 10},
		{"outside parent", []interval{{-20, -10}, {100, 130}}, 100},
		{"covers parent", []interval{{-5, 105}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestAnalyzeSynthetic builds one traced federated query by hand: the
// user agent locates the MRQ through the broker, then the MRQ locates
// two classes in parallel and fetches three fragments, two of them in
// parallel.
func TestAnalyzeSynthetic(t *testing.T) {
	layers := map[string]string{"ua": "useragent", "b": "broker", "m": "mrq", "r1": "resource", "r2": "resource"}
	layerOf := func(a string) string { return layers[a] }
	const tr = "t1"
	spans := []span{
		// user agent -> broker (locate), 0..100us; broker handler 20..80.
		{kind: spanClient, trace: tr, link: 1, from: "ua", at: "b", layer: "useragent", perf: kqml.AskAll, start: 0, end: 100_000},
		{kind: spanServer, trace: tr, link: 1, at: "b", layer: "broker", perf: kqml.AskAll, start: 20_000, end: 80_000},
		// user agent -> MRQ, 100..1100us; MRQ handler 150..1050.
		{kind: spanClient, trace: tr, link: 2, from: "ua", at: "m", layer: "useragent", perf: kqml.AskAll, start: 100_000, end: 1_100_000},
		{kind: spanServer, trace: tr, link: 2, at: "m", layer: "mrq", perf: kqml.AskAll, start: 150_000, end: 1_050_000},
		// MRQ -> broker twice in parallel: 200..300 and 250..350.
		{kind: spanClient, trace: tr, link: 3, from: "m", at: "b", layer: "mrq", perf: kqml.AskAll, start: 200_000, end: 300_000},
		{kind: spanClient, trace: tr, link: 4, from: "m", at: "b", layer: "mrq", perf: kqml.AskAll, start: 250_000, end: 350_000},
		// MRQ -> resources: 400..600 and 450..700 in parallel, then 800..900.
		{kind: spanClient, trace: tr, link: 5, from: "m", at: "r1", layer: "mrq", perf: kqml.AskAll, start: 400_000, end: 600_000},
		{kind: spanClient, trace: tr, link: 6, from: "m", at: "r2", layer: "mrq", perf: kqml.AskAll, start: 450_000, end: 700_000},
		{kind: spanClient, trace: tr, link: 7, from: "m", at: "r1", layer: "mrq", perf: kqml.AskAll, start: 800_000, end: 900_000},
		{kind: spanServer, trace: tr, link: 5, at: "r1", layer: "resource", perf: kqml.AskAll, start: 420_000, end: 580_000},
		// A span from another trace at the MRQ's address must not count.
		{kind: spanClient, trace: "other", link: 8, from: "m", at: "r1", layer: "mrq", perf: kqml.AskAll, start: 500_000, end: 1_000_000},
	}
	st := analyze(spans, layerOf)
	// MRQ self: 900us minus union(200..350, 400..700, 800..900) = 900-150-300-100.
	if st.mrqSelfUS != 350 {
		t.Errorf("mrq self = %v, want 350", st.mrqSelfUS)
	}
	// Fan-out wall time: union of the resource calls = 300 + 100.
	if st.mrqFetchUS != 400 {
		t.Errorf("mrq fetch = %v, want 400", st.mrqFetchUS)
	}
	if st.mrqFetches != 4 {
		t.Errorf("mrq fetches = %d, want 4 (three in-trace plus one other)", st.mrqFetches)
	}
	if st.brokerSearchUS != 60 {
		t.Errorf("broker search self = %v, want 60", st.brokerSearchUS)
	}
	if st.mrqLocateUS != 100 || st.userLocateUS != 100 {
		t.Errorf("locate = mrq %v, user agent %v; want 100 and 100", st.mrqLocateUS, st.userLocateUS)
	}
	// RPC self: (100-60) locate, (1000-900) submit, (200-160) fetch.
	if want := (40.0 + 100 + 40) / 3; st.rpcSelfUS != want {
		t.Errorf("rpc self = %v, want %v", st.rpcSelfUS, want)
	}
	if st.resourceQueryUS != 160 {
		t.Errorf("resource query self = %v, want 160", st.resourceQueryUS)
	}
}
