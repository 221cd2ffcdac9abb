package main

import (
	"fmt"
	"runtime"
	"time"

	"bfskel"
)

// tracedOp is one measured op of a traced run.
type tracedOp struct {
	wall float64            // op wall time, ms
	self map[string]float64 // program span self time by span name, ms
	rep  opReport
}

// runTraced produces the per-layer metrics. It sets the workload up once
// with the build layers timed one by one, then alternates untraced and
// traced ops (flipping which goes first every pair) until the seconds are
// spent and at least the workload's minTraced traced ops ran. Traced ops
// run with the program's own spans collected through a RingSink and
// per-stage allocation accounting on.
func runTraced(w workload, seed int64, seconds float64) (*outcome, error) {
	out := newOutcome()
	ring := bfskel.NewRingSink(0)
	tr := bfskel.NewTracer(ring)

	freeMemory()
	inst, lay, err := w.setup(seed, tr)
	if err != nil {
		return nil, err
	}
	// runOp returns the op's error; a failed output check is recorded as a
	// failed op but keeps the op's timing, as in a timed run.
	runOp := func(t *bfskel.Tracer, what string) (float64, error) {
		runtime.GC()
		start := time.Now()
		err := inst.op(t)
		d := sinceMs(start)
		out.attempted++
		if err != nil {
			out.fail("%s: %v", what, err)
			return d, err
		}
		if err := inst.check(); err != nil {
			out.fail("%s: %v", what, err)
		}
		return d, nil
	}
	warmMs, err := runOp(nil, "warm-up op")
	if err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	if _, err := runOp(tr, "traced warm-up op"); err != nil {
		return nil, fmt.Errorf("traced warm-up op: %w", err)
	}
	freeMemory()
	out.set("setup.peak_rss_mb", "MB", peakRSSMB())
	if _, err := runOp(nil, "settle op"); err != nil {
		return nil, fmt.Errorf("settle op: %w", err)
	}

	var plain []float64
	var traced []tracedOp
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for pair := 0; pair < w.minTraced || time.Now().Before(deadline); pair++ {
		for i := 0; i < 2; i++ {
			if (pair+i)%2 == 0 {
				if d, err := runOp(nil, fmt.Sprintf("untraced op %d", len(plain)+1)); err == nil {
					plain = append(plain, d)
				}
				continue
			}
			mark := len(ring.Records())
			d, err := runOp(tr, fmt.Sprintf("traced op %d", len(traced)+1))
			if err == nil {
				traced = append(traced, tracedOp{wall: d, self: selfTimes(ring.Records()[mark:]), rep: inst.report()})
			}
		}
	}
	out.attempted++
	if err := inst.finish(); err != nil {
		out.fail("final check: %v", err)
	}
	inst.describe(out)
	if len(traced) < w.minTraced || len(plain) == 0 {
		return out, nil
	}

	layerMetrics(out, lay, warmMs, traced[:w.minTraced], traced)
	walls := make([]float64, len(traced))
	for i, t := range traced {
		walls[i] = t.wall
	}
	out.set("trace.overhead_frac", "frac", median(walls)/median(plain)-1)
	out.details["untraced_ops"] = len(plain)
	out.details["traced_ops"] = len(traced)
	return out, nil
}

// selfTimes sums, per span name, each completed span's duration minus the
// durations of its direct children, over one op's trace records.
func selfTimes(recs []bfskel.TraceRecord) map[string]float64 {
	parent := map[uint64]uint64{}
	dur := map[uint64]float64{}
	name := map[uint64]string{}
	for _, r := range recs {
		switch r.Kind {
		case bfskel.TraceSpanStart:
			parent[r.ID] = r.Parent
		case bfskel.TraceSpanEnd:
			dur[r.ID] = float64(r.Dur) / float64(time.Millisecond)
			name[r.ID] = r.Name
		}
	}
	self := map[string]float64{}
	for id, d := range dur {
		self[name[id]] += d
	}
	for id, d := range dur {
		if p, ok := parent[id]; ok && p != 0 {
			if pn, ok := name[p]; ok {
				self[pn] -= d
			}
		}
	}
	return self
}

var (
	coreStages     = []string{"identify", "voronoi", "coarse", "refine", "boundary"}
	protocolPhases = []string{"neighborhood", "centrality", "election", "voronoi"}
)

// layerMetrics derives every per-layer metric. Timings are medians over all
// traced ops; exact counts come from the first traced ops (exact), which a
// given seed always makes the same. A layer the workload does not run
// reads 0.
func layerMetrics(out *outcome, lay *setupLayers, warmMs float64, exact, all []tracedOp) {
	perOp := func(f func(tracedOp) float64) float64 {
		xs := make([]float64, len(all))
		for i, t := range all {
			xs[i] = f(t)
		}
		return median(xs)
	}
	lapSum := func(t tracedOp, name string) float64 {
		s := 0.0
		for _, d := range t.rep.laps[name] {
			s += d
		}
		return s
	}
	lapMedian := func(name string) float64 {
		var xs []float64
		for _, t := range all {
			xs = append(xs, t.rep.laps[name]...)
		}
		return median(xs)
	}

	// Set-up layers.
	out.set("deploy.place_ms", "ms", lay.placeMs)
	out.set("graph.build_ms", "ms", lay.buildMs)
	out.set("graph.lcc_ms", "ms", lay.lccMs)
	out.set("setup.build_network_ms", "ms", lay.buildNetworkMs)
	out.set("setup.warm_ms", "ms", warmMs)

	// Core extraction.
	stageMs := 0.0
	for _, st := range coreStages {
		ms := perOp(func(t tracedOp) float64 { return t.self["stage."+st] })
		out.set("core."+st+"_ms", "ms", ms)
		stageMs += ms
		out.set("core."+st+"_alloc_mb", "MB", perOp(func(t tracedOp) float64 {
			b := 0.0
			for _, res := range t.rep.extracts {
				if ps, ok := res.Stats.Phase(st); ok {
					b += float64(ps.BytesAlloc)
				}
			}
			return b / (1 << 20)
		}))
	}
	var sweeps, visited, replayed, extracts float64
	var c counts
	for _, t := range exact {
		for _, res := range t.rep.extracts {
			for _, ps := range res.Stats.Phases {
				sweeps += float64(ps.Sweeps)
				visited += float64(ps.Visited)
			}
			// Identify sweeps the graph once for ball sizes and, per
			// election round, once to elect plus once for centrality
			// unless it replays the visit log.
			n := len(res.CellOf)
			if res.Stats.BFSSweeps == n*(1+res.Stats.ElectionRounds) {
				replayed++
			}
			extracts++
		}
		for _, res := range t.rep.results {
			oc := countsOf(res)
			c.sites += oc.sites
			c.skelNodes += oc.skelNodes
			c.cycleRank += oc.cycleRank
		}
	}
	k := float64(len(exact))
	out.set("core.sweeps", "count", sweeps/k)
	out.set("core.visited", "count", visited/k)
	out.set("core.visited_per_ms", "1/ms", ratio(visited/k, stageMs))
	out.set("core.replayed", "frac", ratio(replayed, extracts))
	out.set("core.sites", "count", float64(c.sites)/k)
	out.set("core.skeleton_nodes", "count", float64(c.skelNodes)/k)
	out.set("core.cycle_rank", "count", float64(c.cycleRank)/k)

	// Incremental extraction (churn epochs).
	out.set("incremental.step_ms", "ms", lapMedian("churn.step"))
	failMs := lapMedian("churn.batch_fail")
	out.set("incremental.batch_fail_ms", "ms", failMs)
	out.set("incremental.batch_restore_ms", "ms", lapMedian("churn.batch_restore"))
	var single, batch, repaired, attempts []float64
	var updates, fallbacks float64
	for _, t := range exact {
		if len(t.rep.updates) == 0 {
			continue
		}
		cells, att := 0.0, 0.0
		for _, u := range t.rep.updates {
			switch u.kind {
			case "step":
				single = append(single, u.stats.DirtyFraction)
			case "batch_fail":
				batch = append(batch, u.stats.DirtyFraction)
			}
			cells += float64(u.stats.RepairedCells)
			att += float64(u.stats.Attempts)
			updates++
			if u.stats.Fallback {
				fallbacks++
			}
		}
		repaired = append(repaired, cells)
		attempts = append(attempts, att)
	}
	out.set("incremental.dirty_frac_single", "frac", median(single))
	out.set("incremental.dirty_frac_batch", "frac", median(batch))
	out.set("incremental.repaired_cells", "count", median(repaired))
	out.set("incremental.attempts", "count", median(attempts))
	out.set("incremental.fallback_frac", "frac", ratio(fallbacks, updates))
	out.set("incremental.full_extract_ms", "ms", lay.fullExtractMs)
	out.set("incremental.batch_vs_full", "frac", ratio(failMs, lay.fullExtractMs))

	// Distributed protocol phases on the simnet round engine.
	phaseMs := 0.0
	for _, ph := range protocolPhases {
		ms := perOp(func(t tracedOp) float64 { return t.self["phase."+ph] })
		out.set("protocol."+ph+"_ms", "ms", ms)
		phaseMs += ms
	}
	var rounds, messages float64
	for _, t := range exact {
		for _, dres := range t.rep.protocols {
			for _, ps := range dres.PhaseStats {
				rounds += float64(ps.Rounds)
				messages += float64(ps.Messages)
			}
		}
	}
	out.set("simnet.rounds", "count", rounds/k)
	out.set("simnet.messages", "count", messages/k)
	out.set("simnet.messages_per_ms", "1/ms", ratio(messages/k, phaseMs))
	out.set("paper.extract_ms", "ms", perOp(func(t tracedOp) float64 { return lapSum(t, "paper.extract") }))
	// Homotopy: the first traced op's results whose skeleton cycle rank
	// equals their field's holes. paper.homotopy_ok is the same count on
	// the paper's fields.
	homotopy := 0.0
	for i, res := range exact[0].rep.results {
		if res.Skeleton.CycleRank() == exact[0].rep.holes[i] {
			homotopy++
		}
	}
	out.set("core.homotopy_ok", "count", homotopy)
	if len(exact[0].rep.protocols) == 0 {
		homotopy = 0
	}
	out.set("paper.homotopy_ok", "count", homotopy)
}

// ratio is a/b, or 0 when the workload did no b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
