package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/client"
	"partialtor/internal/dircache"
	"partialtor/internal/faults"
	"partialtor/internal/gossip"
	"partialtor/internal/harness"
	"partialtor/internal/simnet"
	"partialtor/internal/topo"
)

// scale sizes the workloads: paperScale is what the benchmark measures,
// smokeScale what its smoke test runs.
type scale struct {
	authorityRelays int
	regionalClients int
	starClients     int
	campaignRelays  int
	campaignClients int
	campaignPeriods int
	floodPeriods    []int // campaign periods under the authority flood
}

var paperScale = scale{
	authorityRelays: 8000,
	regionalClients: 200_000,
	starClients:     1_000_000,
	campaignRelays:  2000,
	campaignClients: 1_000_000,
	campaignPeriods: 6,
	floodPeriods:    []int{1, 4},
}

var smokeScale = scale{
	authorityRelays: 300,
	regionalClients: 20_000,
	starClients:     100_000,
	campaignRelays:  150,
	campaignClients: 50_000,
	campaignPeriods: 3,
	floodPeriods:    []int{1},
}

// cell is one unit of a workload's pass. run makes the cell's timed calls
// through the recorder, checks the simulated outputs and returns a canonical
// text of them (hashed into the cell's digest); an error is a failed check.
type cell struct {
	name string
	run  func(r *recorder) (string, error)
}

// workload builds its cells. prepare performs the cold one-time set-up
// through the recorder (timed as setup_s) and returns the cells every pass
// runs, in order.
type workload struct {
	name    string
	prepare func(r *recorder, sc scale, seed int64) ([]cell, error)
}

var workloads = []workload{
	{"authority", prepareAuthority},
	{"distribution", prepareDistribution},
	{"campaign", prepareCampaign},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// majorityFlood is the paper's headline attack: five of nine authorities
// offline for the first five minutes.
func majorityFlood() *attack.Plan {
	p := attack.FiveMinuteOutage(attack.MajorityTargets(9))
	return &p
}

// protocolLayer names the module that implements each protocol.
var protocolLayer = map[harness.Protocol]string{
	harness.Current:     "dirv3",
	harness.Synchronous: "syncdir",
	harness.ICPS:        "core",
}

// prepareAuthority is the Generate phase alone at paper scale: the three
// protocols, healthy and under the five-minute majority flood (the cells
// behind Figures 10 and 11 and Table 1).
func prepareAuthority(r *recorder, sc scale, seed int64) ([]cell, error) {
	base := harness.Scenario{Relays: sc.authorityRelays, Seed: seed}
	r.call("harness.Inputs", "harness.inputs_s", "harness", func() { harness.Inputs(base) })
	var cells []cell
	for _, p := range []harness.Protocol{harness.Current, harness.Synchronous, harness.ICPS} {
		for _, flood := range []bool{false, true} {
			s := base
			s.Protocol = p
			name := protocolLayer[p] + "/healthy"
			if flood {
				s.Attack = majorityFlood()
				name = protocolLayer[p] + "/flood"
			}
			cells = append(cells, cell{name, func(r *recorder) (string, error) { return runAuthority(r, s) }})
		}
	}
	return cells, nil
}

func runAuthority(r *recorder, s harness.Scenario) (string, error) {
	layer := protocolLayer[s.Protocol]
	var res *harness.RunResult
	var err error
	r.call("harness.RunE", layer+".generate_s", layer, func() { res, err = harness.RunE(context.Background(), s) })
	if err != nil {
		return "", err
	}
	r.count("simnet.messages", float64(res.Messages))
	r.count("simnet.bytes_mb", float64(res.BytesSent)/1e6)
	out := fmt.Sprintf("success=%v latency=%d doneAt=%d messages=%d bytes=%d", res.Success, res.Latency, res.DoneAt, res.Messages, res.BytesSent)
	if c := res.Consensus(); c != nil {
		out += fmt.Sprintf(" consensus=%x relays=%d", c.Digest(), len(c.Relays))
	}
	flood := s.Attack != nil
	switch {
	case !flood && (!res.Success || res.Consensus() == nil):
		return out, errors.New("healthy run produced no consensus")
	case flood && s.Protocol != harness.ICPS && res.Success:
		return out, errors.New("lock-step protocol survived the five-minute flood")
	case flood && s.Protocol == harness.ICPS && (!res.Success || res.Consensus() == nil):
		return out, errors.New("ICPS failed under the five-minute flood")
	case flood && s.Protocol == harness.ICPS && (res.Latency <= 5*time.Minute || res.Latency > 6*time.Minute):
		return out, fmt.Errorf("ICPS latency %v under the flood, want just after the 5-minute window", res.Latency)
	}
	return out, nil
}

// prepareDistribution is the Distribute phase alone, without crypto: the
// regional-flood grid of harness.RegionalTable and the million-client star
// pair of the dircache benchmarks.
func prepareDistribution(r *recorder, sc scale, seed int64) ([]cell, error) {
	tp := topo.Continents()
	regional := func(flood bool, k int) dircache.Spec {
		s := dircache.Spec{
			Clients:     sc.regionalClients,
			Caches:      24,
			Fleets:      2 * tp.NumRegions(),
			FetchWindow: 30 * time.Minute,
			Seed:        seed,
			Topology:    tp,
			RaceK:       k,
		}
		if flood {
			s.Attacks = []attack.Plan{{Tier: attack.TierCache, TargetRegion: "eu", End: 90 * time.Minute}}
		}
		return s
	}
	star := func(flood bool) dircache.Spec {
		s := dircache.Spec{
			Clients:     sc.starClients,
			Caches:      24,
			Fleets:      4,
			FetchWindow: 30 * time.Minute,
			Tick:        10 * time.Second,
			PublishAt:   90 * time.Second,
			Seed:        seed,
		}
		if flood {
			s.Attacks = []attack.Plan{{Tier: attack.TierCache, Targets: attack.FirstTargets(12), End: 10 * time.Minute, Residual: 2e6}}
		}
		return s
	}
	specs := []struct {
		name  string
		spec  dircache.Spec
		flood bool
	}{
		{"regional/healthy/k0", regional(false, 0), false},
		{"regional/healthy/k2", regional(false, 2), false},
		{"regional/flood/k0", regional(true, 0), true},
		{"regional/flood/k2", regional(true, 2), true},
		{"star/healthy", star(false), false},
		{"star/flood", star(true), true},
	}
	var err error
	r.call("dircache.Spec.Validate", "dircache.validate_s", "dircache", func() {
		for _, s := range specs {
			if err = s.spec.Validate(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	// The racing clients must beat the legacy ones under the regional
	// flood; the K=0 cell runs first in every pass and leaves its coverage
	// here for the K=2 cell to compare against.
	floodK0 := -1
	var cells []cell
	for _, s := range specs {
		cells = append(cells, cell{s.name, func(r *recorder) (string, error) {
			res, out, err := runDistribution(r, s.spec)
			if err != nil {
				return out, err
			}
			if !s.flood && res.TimeToTarget == simnet.Never {
				return out, fmt.Errorf("healthy cell never reached %.0f%% coverage", 100*res.Spec.TargetCoverage)
			}
			switch s.name {
			case "regional/flood/k0":
				floodK0 = res.Covered
			case "regional/flood/k2":
				if res.Covered <= floodK0 {
					return out, fmt.Errorf("racing clients covered %d under the flood, legacy clients %d", res.Covered, floodK0)
				}
			}
			return out, nil
		}})
	}
	return cells, nil
}

func runDistribution(r *recorder, spec dircache.Spec) (*dircache.Result, string, error) {
	var res *dircache.Result
	var err error
	r.call("dircache.Run", "dircache.run_s", "dircache", func() { res, err = dircache.Run(spec) })
	if err != nil {
		return nil, "", err
	}
	var tl *client.Timeline
	r.call("dircache.FleetTimeline", "client.timeline_s", "client", func() {
		tl = dircache.FleetTimeline(client.DefaultPolicy(), []*dircache.Result{res})
	})
	countDistribution(r, res)
	avail := tl.Availability()
	out := distributionText(res) + fmt.Sprintf(" availability=%v", avail)
	if res.Covered > res.TotalClients {
		return res, out, fmt.Errorf("covered %d of %d clients", res.Covered, res.TotalClients)
	}
	if avail < 0 || avail > 1 {
		return res, out, fmt.Errorf("availability %v outside [0, 1]", avail)
	}
	return res, out, nil
}

// countDistribution adds one distribution result's counters to the pass.
func countDistribution(r *recorder, d *dircache.Result) {
	r.count("simnet.messages", float64(d.Stats.MessagesSent))
	r.count("simnet.bytes_mb", float64(d.Stats.BytesSent)/1e6)
	r.count("dircache.race_timeouts", float64(d.RaceTimeouts))
	r.count("dircache.retry_bursts", float64(d.RetryBursts))
	r.count("dircache.failed_fetches", float64(d.FailedFetches))
	r.count("dircache.cache_fallbacks", float64(d.CacheFallbacks))
	r.count("dircache.cache_egress_mb", float64(d.CacheEgress)/1e6)
	r.count("dircache.race_waste_mb", float64(d.RaceWasteBytes)/1e6)
	r.count("gossip.pushes", float64(d.GossipPushes))
	r.count("gossip.pulls", float64(d.GossipPulls))
	r.count("gossip.bytes_mb", float64(d.GossipBytes)/1e6)
	r.count("gossip.caches_from_peers", float64(d.CachesFromPeers))
	r.count("faults.events", float64(d.FaultEvents))
	r.count("faults.retry_dropped", float64(d.RetryDropped))
	r.count("client.extra_fetches", float64(d.ExtraFetches))
	r.count("client.stale_rejections", float64(d.StaleRejections))
	r.count("client.forks_detected", float64(len(d.ForkDetections)))
}

// distributionText is the canonical text of a distribution result's outputs.
func distributionText(d *dircache.Result) string {
	return fmt.Sprintf("covered=%d/%d ttt=%d points=%d egress=%d/%d/%d served=%d/%d failed=%d fallbacks=%d race=%d/%d/%d gossip=%d/%d/%d/%d/%d retry=%d/%d faults=%d below=%d misled=%d stale=%d extra=%d forks=%d messages=%d bytes=%d",
		d.Covered, d.TotalClients, d.TimeToTarget, len(d.Points),
		d.AuthorityEgress, d.CacheEgress, d.FleetEgress, d.FullDocsServed, d.DiffsServed,
		d.FailedFetches, d.CacheFallbacks, d.RaceWasteBytes, d.RaceLaggards, d.RaceTimeouts,
		d.GossipPushes, d.GossipPulls, d.GossipServes, d.GossipRounds, d.GossipBytes,
		d.RetryBursts, d.RetryDropped, d.FaultEvents, d.TimeBelowTarget,
		d.Misled, d.StaleRejections, d.ExtraFetches, len(d.ForkDetections),
		d.Stats.MessagesSent, d.Stats.BytesSent)
}

// prepareCampaign is the whole Generate → Distribute → Avail pipeline in one
// experiment, with every optional layer on: hash chain, verifying clients,
// equivocating caches, gossip mesh, jittered backoff and mirror crashes.
func prepareCampaign(r *recorder, sc scale, seed int64) ([]cell, error) {
	base := harness.Scenario{Protocol: harness.ICPS, Relays: sc.campaignRelays, Seed: seed}
	const caches = 20
	flooded := map[int]bool{}
	for _, p := range sc.floodPeriods {
		flooded[p] = true
	}
	r.call("harness.Inputs", "harness.inputs_s", "harness", func() { harness.Inputs(base) })
	var exp *harness.Experiment
	var err error
	r.call("harness.NewExperiment", "harness.new_experiment_s", "harness", func() {
		exp, err = harness.NewExperiment(
			harness.WithScenario(base),
			harness.WithPeriods(sc.campaignPeriods),
			harness.WithAttack(*majorityFlood()),
			harness.WithAttackSchedule(func(i int) bool { return flooded[i] }),
			harness.WithDistribution(dircache.Spec{Clients: sc.campaignClients, Caches: caches}),
			harness.WithChain(),
			harness.WithVerifiedClients(),
			harness.WithCompromise(attack.CompromisePlan{
				Targets: attack.FirstTargets(2),
				Mode:    attack.CompromiseEquivocate,
				Onset:   2,
			}),
			harness.WithGossip(gossip.Config{Fanout: 3}),
			harness.WithBackoff(faults.Backoff{Jitter: 0.5}),
			harness.WithFaults(faults.Plan{Faults: []faults.Fault{{
				Kind:    faults.Crash,
				Tier:    attack.TierCache,
				Targets: faults.SpreadTargets(2, caches, 3*caches/10),
				Start:   6 * time.Minute,
				End:     10 * time.Minute,
			}}}),
		)
	})
	if err != nil {
		return nil, err
	}
	return []cell{{"campaign", func(r *recorder) (string, error) { return runCampaign(r, exp) }}}, nil
}

func runCampaign(r *recorder, exp *harness.Experiment) (string, error) {
	var res *harness.ExperimentResult
	var err error
	r.call("harness.Experiment.Run", "harness.experiment_s", "harness", func() { res, err = exp.Run(context.Background()) })
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for i, run := range res.Runs {
		r.count("simnet.messages", float64(run.Messages))
		r.count("simnet.bytes_mb", float64(run.BytesSent)/1e6)
		fmt.Fprintf(&b, "period=%d success=%v latency=%d messages=%d bytes=%d", i, run.Success, run.Latency, run.Messages, run.BytesSent)
		if c := run.Consensus(); c != nil {
			fmt.Fprintf(&b, " consensus=%x", c.Digest())
		}
		if d := res.Distributions[i]; d != nil {
			countDistribution(r, d)
			fmt.Fprintf(&b, " %s", distributionText(d))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "availability=%v firstOutage=%d forks=%d misled=%d chain=%d",
		res.Availability, res.FirstOutage, res.ForksDetected, res.MisledClients, res.Chain.Len())
	if head, ok := res.Chain.Head(); ok {
		fmt.Fprintf(&b, " head=%x", head.Digest)
	}
	out := b.String()
	switch {
	case res.Successes != len(res.Runs):
		return out, fmt.Errorf("%d of %d periods produced a consensus", res.Successes, len(res.Runs))
	case res.ForksDetected == 0:
		return out, errors.New("verifying clients caught no fork")
	case res.MisledClients != 0:
		return out, fmt.Errorf("%d verifying clients misled", res.MisledClients)
	case res.Availability <= 0 || res.Availability > 1:
		return out, fmt.Errorf("availability %v outside (0, 1]", res.Availability)
	}
	return out, nil
}
