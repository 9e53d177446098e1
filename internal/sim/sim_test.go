package sim

import (
	"testing"
)

func TestRunDeterministic(t *testing.T) {
	base := Config{
		Seed: 11, Brokers: 4, Resources: 16, Strategy: Specialized,
		MeanQueryIntervalSec: 30, DurationSec: 3600,
	}
	// Loaded: brokers merge peer matches for every query, and the merged
	// resources are then queried over the query agent's shared link, so
	// any map-order dependence in that merge shows up as a moved
	// response time.
	loaded := Config{
		Seed: 1999, Brokers: 8, Resources: 48, Strategy: Specialized,
		MeanQueryIntervalSec: 5, DurationSec: 2 * 3600,
	}
	for _, cfg := range []Config{base, loaded} {
		m1 := Run(cfg)
		m2 := Run(cfg)
		if m1 != m2 {
			t.Errorf("seed %d: same seed gave different metrics:\n%+v\n%+v", cfg.Seed, m1, m2)
		}
		if m1.InterBrokerMessages == 0 {
			t.Errorf("seed %d: configuration forwarded no queries between brokers", cfg.Seed)
		}
	}
	other := base
	other.Seed = 12
	if Run(base) == Run(other) {
		t.Error("different seeds gave identical metrics (suspicious)")
	}
}

func TestReliableSystemAnswersEverything(t *testing.T) {
	m := Run(Config{
		Seed: 1, Brokers: 4, Resources: 16, Strategy: Specialized,
		MeanQueryIntervalSec: 60, DurationSec: 6 * 3600, UniqueDomains: true,
	})
	if m.QueriesIssued < 100 {
		t.Fatalf("issued = %d, expected a few hundred", m.QueriesIssued)
	}
	if rate := m.ReplyRate(); rate < 0.95 {
		t.Errorf("reply rate = %.2f, want ≥0.95 on reliable hardware", rate)
	}
	if sr := m.SuccessRate(); sr != 1.0 {
		t.Errorf("success rate = %.2f, want 1.0 (every reply finds the unique resource)", sr)
	}
}

func TestSingleBrokerSaturates(t *testing.T) {
	// 96 ads at 1 s/MB ⇒ ≥96 s service; a query every 15 s drowns it
	// (the Figure 14 effect).
	saturated := Run(Config{
		Seed: 2, Brokers: 1, Resources: 96, Strategy: Single,
		MeanQueryIntervalSec: 15, DurationSec: 2 * 3600,
	})
	light := Run(Config{
		Seed: 2, Brokers: 1, Resources: 96, Strategy: Single,
		MeanQueryIntervalSec: 200, DurationSec: 2 * 3600,
	})
	if saturated.MeanResponseSec < 5*light.MeanResponseSec {
		t.Errorf("saturated response %.0fs should dwarf light-load %.0fs",
			saturated.MeanResponseSec, light.MeanResponseSec)
	}
	if light.MeanResponseSec < 96 {
		t.Errorf("light-load response %.0fs below the 96s service floor", light.MeanResponseSec)
	}
}

func TestSpecializedBeatsReplicatedAtModerateLoad(t *testing.T) {
	// Figure 15: 8 brokers, 96 resources; at moderate query intervals
	// specialized brokers (12 ads each) answer far faster than
	// replicated brokers (96 ads each).
	repl := RunAveraged(Config{
		Seed: 3, Brokers: 8, Resources: 96, Strategy: Replicated,
		MeanQueryIntervalSec: 25, DurationSec: 2 * 3600,
	}, 3)
	spec := RunAveraged(Config{
		Seed: 3, Brokers: 8, Resources: 96, Strategy: Specialized,
		MeanQueryIntervalSec: 25, DurationSec: 2 * 3600,
	}, 3)
	if spec.MeanResponseSec >= repl.MeanResponseSec {
		t.Errorf("specialized %.1fs should beat replicated %.1fs at moderate load",
			spec.MeanResponseSec, repl.MeanResponseSec)
	}
}

func TestMultibrokerBeatsSingleUnderLoad(t *testing.T) {
	single := Run(Config{
		Seed: 4, Brokers: 1, Resources: 96, Strategy: Single,
		MeanQueryIntervalSec: 20, DurationSec: 2 * 3600,
	})
	multi := Run(Config{
		Seed: 4, Brokers: 8, Resources: 96, Strategy: Specialized,
		MeanQueryIntervalSec: 20, DurationSec: 2 * 3600,
	})
	if multi.MeanResponseSec >= single.MeanResponseSec {
		t.Errorf("specialized multibroker %.1fs should beat the saturated single broker %.1fs",
			multi.MeanResponseSec, single.MeanResponseSec)
	}
}

func TestInterBrokerMessageAccounting(t *testing.T) {
	repl := Run(Config{
		Seed: 5, Brokers: 4, Resources: 16, Strategy: Replicated,
		MeanQueryIntervalSec: 60, DurationSec: 3600,
	})
	if repl.InterBrokerMessages != 0 {
		t.Errorf("replicated brokering forwarded %d messages, want 0", repl.InterBrokerMessages)
	}
	spec := Run(Config{
		Seed: 5, Brokers: 4, Resources: 16, Strategy: Specialized,
		MeanQueryIntervalSec: 60, DurationSec: 3600,
	})
	if spec.InterBrokerMessages == 0 {
		t.Error("specialized brokering should forward queries")
	}
	// Every answered query fans out to the 3 peers.
	if spec.InterBrokerMessages < 3*spec.BrokerReplies/2 {
		t.Errorf("forwards = %d for %d replies; expected ≈3 per query",
			spec.InterBrokerMessages, spec.BrokerReplies)
	}
}

func TestFailuresReduceReplyRate(t *testing.T) {
	reliable := Run(Config{
		Seed: 6, Brokers: 5, Resources: 20, Strategy: Specialized,
		MeanQueryIntervalSec: 60, DurationSec: 12 * 3600, UniqueDomains: true,
	})
	flaky := Run(Config{
		Seed: 6, Brokers: 5, Resources: 20, Strategy: Specialized,
		MeanQueryIntervalSec: 60, DurationSec: 12 * 3600, UniqueDomains: true,
		BrokerMTBFSec: 900, BrokerMTTRSec: 1800,
	})
	if reliable.ReplyRate() < 0.95 {
		t.Errorf("reliable reply rate = %.2f", reliable.ReplyRate())
	}
	if flaky.ReplyRate() > 0.7*reliable.ReplyRate() {
		t.Errorf("flaky reply rate %.2f should be far below reliable %.2f",
			flaky.ReplyRate(), reliable.ReplyRate())
	}
}

func TestRedundancyImprovesRobustness(t *testing.T) {
	// Table 6's trend: with failing brokers, more advertisement
	// redundancy means answered queries more often locate the matching
	// resource.
	run := func(redundancy int) float64 {
		m := RunAveraged(Config{
			Seed: 7, Brokers: 5, Resources: 20, Strategy: Specialized,
			Redundancy: redundancy, UniqueDomains: true,
			MeanQueryIntervalSec: 60, DurationSec: 12 * 3600,
			BrokerMTBFSec: 1800, BrokerMTTRSec: 1800,
		}, 5)
		return m.SuccessRate()
	}
	low := run(1)
	high := run(5)
	if high <= low {
		t.Errorf("success rate with redundancy 5 (%.2f) should exceed redundancy 1 (%.2f)", high, low)
	}
	if high < 0.9 {
		t.Errorf("full redundancy success = %.2f, want ≈1 (all brokers know all resources)", high)
	}
}

func TestFullRedundancyAlwaysFindsAgent(t *testing.T) {
	// Table 6, last column: "with complete redundancy, you can always
	// find the agent if you get a reply at all".
	m := RunAveraged(Config{
		Seed: 8, Brokers: 5, Resources: 20, Strategy: Specialized,
		Redundancy: 5, UniqueDomains: true,
		MeanQueryIntervalSec: 60, DurationSec: 12 * 3600,
		BrokerMTBFSec: 3600, BrokerMTTRSec: 1800,
	}, 5)
	if sr := m.SuccessRate(); sr < 0.999 {
		t.Errorf("success rate = %.3f, want 1.0 with complete redundancy", sr)
	}
}

func TestScalabilityLevelsOff(t *testing.T) {
	// Figure 17: with 25 resources per broker, response times must not
	// blow up as the system grows — "the response times tend to level
	// off, and certainly do not show any catastrophic behavior".
	resp := func(resources int) float64 {
		m := RunAveraged(Config{
			Seed: 9, Brokers: resources / 25, Resources: resources,
			Strategy: Specialized, MeanQueryIntervalSec: 60, DurationSec: 2 * 3600,
		}, 3)
		return m.MeanResponseSec
	}
	small := resp(50)
	large := resp(200)
	if large > 4*small {
		t.Errorf("response grew catastrophically: %d resources %.1fs vs 50 resources %.1fs",
			200, large, small)
	}
	if small < 25 {
		t.Errorf("response %.1fs below the 25s local-reasoning floor", small)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Brokers != 1 || c.Redundancy != 1 || c.BandwidthKBps != 125 || c.LatencySec != 0.1 {
		t.Errorf("defaults = %+v", c)
	}
	c = Config{Brokers: 3, Redundancy: 9}.withDefaults()
	if c.Redundancy != 3 {
		t.Errorf("redundancy should be capped at broker count, got %d", c.Redundancy)
	}
}

func TestStrategyString(t *testing.T) {
	if Single.String() != "single" || Replicated.String() != "replicated" || Specialized.String() != "specialized" {
		t.Error("strategy names wrong")
	}
}

func TestDomainAssignment(t *testing.T) {
	// Four resources per domain in the standard configuration.
	m := Run(Config{
		Seed: 10, Brokers: 2, Resources: 8, Strategy: Replicated,
		MeanQueryIntervalSec: 120, DurationSec: 3600,
	})
	// Every broker reply should name exactly 4 resources (all replicas
	// hold all ads), so resource queries = 4 × replies.
	if m.BrokerReplies > 0 && m.ResourceQueries != 4*m.BrokerReplies {
		t.Errorf("resource queries = %d for %d replies, want 4 per reply",
			m.ResourceQueries, m.BrokerReplies)
	}
}

func TestBrokerKnowledgeOnlyHelps(t *testing.T) {
	// The paper's untested conjecture (Section 5.2.2): pruning peers via
	// advertised broker capabilities "would only help, provided that the
	// extra time cost in reasoning over broker advertisements was less
	// than the communication time between the brokers". Our model
	// charges no extra reasoning, so knowledge must strictly reduce both
	// messages and response time whenever some broker lacks the domain.
	base := Config{
		Seed: 21, Brokers: 8, Resources: 32, Strategy: Specialized,
		MeanQueryIntervalSec: 30, DurationSec: 2 * 3600,
	}
	plain := RunAveraged(base, 3)
	withK := base
	withK.BrokerKnowledge = true
	pruned := RunAveraged(withK, 3)
	if pruned.InterBrokerMessages >= plain.InterBrokerMessages {
		t.Errorf("knowledge should cut forwards: %d vs %d",
			pruned.InterBrokerMessages, plain.InterBrokerMessages)
	}
	if pruned.MeanResponseSec >= plain.MeanResponseSec {
		t.Errorf("knowledge should cut response time: %.1f vs %.1f",
			pruned.MeanResponseSec, plain.MeanResponseSec)
	}
	// Correctness is unaffected: every reply still covers its domain.
	if pruned.BrokerReplies > 0 && pruned.TargetFound != pruned.BrokerReplies {
		t.Errorf("knowledge broke coverage: %d of %d replies complete",
			pruned.TargetFound, pruned.BrokerReplies)
	}
}
