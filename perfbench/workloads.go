package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"bfskel"
	"bfskel/internal/deploy"
	"bfskel/internal/graph"
)

// workload is one named set of inputs. setup builds its networks from the
// seed; tr is nil for a timed run and the trace sink's tracer for a traced
// run, where setup also times the build layers one by one.
type workload struct {
	setup func(seed int64, tr *bfskel.Tracer) (instance, *setupLayers, error)
	// minTraced is the number of traced ops a traced run makes at least;
	// its exact counts come from the first minTraced of them.
	minTraced int
}

// instance is one set-up workload ready for ops.
type instance interface {
	// op runs one operation through the library; a non-nil tracer traces
	// it. It leaves its outputs and layer report for check and report.
	op(tr *bfskel.Tracer) error
	// check verifies the last op's outputs; it runs outside the timer.
	check() error
	// report returns the last op's layer data.
	report() opReport
	// finish runs the end-of-run check.
	finish() error
	// describe adds the run's resolved kernels/engines and details.
	describe(o *outcome)
}

var workloads = map[string]workload{
	"field_1e5":    {setup: fieldSetup, minTraced: 1},
	"churn_1e5":    {setup: churnSetup, minTraced: 3},
	"paper_fields": {setup: paperSetup, minTraced: 1},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupLayers holds the set-up layer timings of a traced run, summed over
// the workload's networks.
type setupLayers struct {
	buildNetworkMs float64 // whole BuildNetwork calls
	placeMs        float64 // deploy.PerturbedGrid
	buildMs        float64 // graph.Build at the calibrated radio model
	lccMs          float64 // LargestComponent plus Subgraph
	fullExtractMs  float64 // churn_1e5: pooled full extraction of the field
}

// opReport is what one op leaves for the per-layer metrics.
type opReport struct {
	extracts  []*bfskel.Result // centralized extractions, with Stats
	results   []*bfskel.Result // the op's outputs, for the exact counts
	holes     []int            // the holes of each result's field
	updates   []churnUpdate
	protocols []*bfskel.DistributedResult
	laps      map[string][]float64 // benchmark span durations, ms
}

// churnUpdate is one ChurnSession update of an epoch.
type churnUpdate struct {
	kind                     string // "step", "batch_fail" or "batch_restore"
	wantRemoved, wantRevived int
	stats                    bfskel.UpdateStats
}

// lap opens a benchmark span around one call into the library and returns
// the function that ends it and records its duration under name. Untraced
// ops record nothing.
func (r *opReport) lap(tr *bfskel.Tracer, name string) func() {
	if tr == nil {
		return func() {}
	}
	sp := tr.StartSpan(name)
	start := time.Now()
	return func() {
		d := float64(time.Since(start)) / float64(time.Millisecond)
		sp.End()
		if r.laps == nil {
			r.laps = map[string][]float64{}
		}
		r.laps[name] = append(r.laps[name], d)
	}
}

func sinceMs(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// windowSpec is the window field of field_1e5 and churn_1e5: 10^5
// requested nodes, jittered grid, average degree 7.
func windowSpec(seed int64) bfskel.NetworkSpec {
	return bfskel.NetworkSpec{
		Shape: bfskel.MustShape("window"), N: 100_000, TargetDeg: 7,
		Seed: seed, Layout: bfskel.LayoutGrid,
	}
}

// buildNetwork runs BuildNetwork; with a traced run it also re-runs the
// build one layer at a time (deploy, graph build at the calibrated model,
// largest component) and checks the layers reproduce the network.
func buildNetwork(build func() (*bfskel.Network, error), lay *setupLayers) (*bfskel.Network, error) {
	start := time.Now()
	net, err := build()
	if err != nil {
		return nil, err
	}
	if lay == nil {
		return net, nil
	}
	lay.buildNetworkMs += sinceMs(start)
	spec := net.Spec
	if spec.Layout != bfskel.LayoutGrid || spec.Accept != nil {
		return nil, fmt.Errorf("layer split supports unthinned grid layouts only")
	}
	spacing := math.Sqrt(spec.Shape.Poly.Area() / float64(spec.N))
	t := time.Now()
	pts := deploy.PerturbedGrid(spec.Shape.Poly, spacing, 0.45*spacing, spec.Seed)
	lay.placeMs += sinceMs(t)
	t = time.Now()
	g := graph.Build(pts, net.Radio, spec.Seed)
	lay.buildMs += sinceMs(t)
	t = time.Now()
	if keep := g.LargestComponent(); len(keep) < g.N() {
		g, _ = g.Subgraph(keep)
	}
	lay.lccMs += sinceMs(t)
	if g.N() != net.N() || g.NumEdges() != net.Graph.NumEdges() {
		return nil, fmt.Errorf("layer split built %d nodes/%d edges, BuildNetwork %d/%d",
			g.N(), g.NumEdges(), net.N(), net.Graph.NumEdges())
	}
	return net, nil
}

// counts are the exact output counts an extraction must repeat.
type counts struct{ sites, skelNodes, cycleRank int }

func countsOf(res *bfskel.Result) counts {
	return counts{len(res.Sites), res.Skeleton.NumNodes(), res.Skeleton.CycleRank()}
}

func (c counts) String() string {
	return fmt.Sprintf("%d sites/%d skeleton nodes/cycle rank %d", c.sites, c.skelNodes, c.cycleRank)
}

// ---- field_1e5: full extraction with one pooled Extractor ----

type fieldInst struct {
	net   *bfskel.Network
	x     *bfskel.Extractor
	p     bfskel.Params
	holes int
	ref   *counts
	rep   opReport
}

func fieldSetup(seed int64, tr *bfskel.Tracer) (instance, *setupLayers, error) {
	var lay *setupLayers
	if tr != nil {
		lay = &setupLayers{}
	}
	spec := windowSpec(seed)
	net, err := buildNetwork(func() (*bfskel.Network, error) { return bfskel.BuildNetwork(spec) }, lay)
	if err != nil {
		return nil, nil, err
	}
	return &fieldInst{net: net, x: net.Extractor(), p: bfskel.DefaultParams(), holes: spec.Shape.Holes()}, lay, nil
}

func (f *fieldInst) op(tr *bfskel.Tracer) error {
	f.rep = opReport{}
	f.x.Tracer = tr
	f.x.CollectMemStats = tr != nil
	res, err := f.x.Extract(f.p)
	if err != nil {
		return err
	}
	f.rep.extracts = []*bfskel.Result{res}
	f.rep.results = f.rep.extracts
	f.rep.holes = []int{f.holes}
	return nil
}

// check verifies that the extraction repeats the first op's counts exactly.
// Whether the cycle rank equals the window's holes is reported as
// homotopy (core.homotopy_ok and the report's details), not checked: see
// README.md.
func (f *fieldInst) check() error {
	c := countsOf(f.rep.results[0])
	if f.ref == nil {
		f.ref = &c
	}
	if c != *f.ref {
		return fmt.Errorf("extraction gave %v, first op %v", c, *f.ref)
	}
	return nil
}

func (f *fieldInst) report() opReport { return f.rep }
func (f *fieldInst) finish() error    { return nil }

func (f *fieldInst) describe(o *outcome) {
	if len(f.rep.results) > 0 {
		o.kernels[f.rep.results[0].Stats.FloodKernel] = true
	}
	o.details["nodes"] = f.net.N()
	o.details["avg_degree"] = f.net.AvgDegree()
	if f.ref != nil {
		o.details["output"] = f.ref.String()
		o.details["homotopy_ok"] = f.ref.cycleRank == f.holes
		o.details["homotopy_cycles_over_holes"] = fmt.Sprintf("%d/%d", f.ref.cycleRank, f.holes)
	}
}

// ---- churn_1e5: churn epochs through one ChurnSession ----

const (
	epochSingles = 16  // single-node fail/revive steps per epoch
	epochBatch   = 100 // scattered failure batch per epoch
)

// churnRun is one ChurnSession and the seeded schedule driving it.
type churnRun struct {
	net  *bfskel.Network
	s    *bfskel.ChurnSession
	rng  *rand.Rand
	prev []int32 // the last single-step victim, revived by the next step
}

type churnInst struct {
	p     bfskel.Params
	holes int
	// main runs the timed ops, and the traced ops of a traced run; twin,
	// only in a traced run, is an identical untraced session on its own
	// copy of the network, so traced and untraced epochs can alternate.
	main, twin *churnRun
	rep        opReport
}

func churnSetup(seed int64, tr *bfskel.Tracer) (instance, *setupLayers, error) {
	var lay *setupLayers
	if tr != nil {
		lay = &setupLayers{}
	}
	spec := windowSpec(seed)
	p := bfskel.DefaultParams()
	open := func(tr *bfskel.Tracer, lay *setupLayers) (*churnRun, error) {
		net, err := buildNetwork(func() (*bfskel.Network, error) { return bfskel.BuildNetwork(spec) }, lay)
		if err != nil {
			return nil, err
		}
		if lay != nil {
			x := net.Extractor()
			var runs []float64
			for i := 0; i < 3; i++ {
				t := time.Now()
				if _, err := x.Extract(p); err != nil {
					return nil, err
				}
				runs = append(runs, sinceMs(t))
			}
			lay.fullExtractMs = median(runs)
		}
		s, err := net.ChurnSessionObs(p, bfskel.ObsScope{Tracer: tr})
		if err != nil {
			return nil, err
		}
		return &churnRun{net: net, s: s, rng: rand.New(rand.NewSource(seed))}, nil
	}
	c := &churnInst{p: p, holes: spec.Shape.Holes()}
	var err error
	if c.main, err = open(tr, lay); err != nil {
		return nil, nil, err
	}
	if tr != nil {
		if c.twin, err = open(nil, nil); err != nil {
			return nil, nil, err
		}
	}
	return c, lay, nil
}

// pick returns a random live node not in taken.
func (r *churnRun) pick(taken map[int32]bool) int32 {
	for {
		v := int32(r.rng.Intn(r.net.N()))
		if r.s.Alive(v) && !taken[v] {
			return v
		}
	}
}

func (c *churnInst) op(tr *bfskel.Tracer) error {
	r := c.main
	if tr == nil && c.twin != nil {
		r = c.twin
	}
	c.rep = opReport{}
	step := func(kind string, fail, restore []int32) error {
		end := c.rep.lap(tr, "churn."+kind)
		_, err := r.s.Step(fail, restore)
		end()
		if err != nil {
			return fmt.Errorf("%s update: %w", kind, err)
		}
		c.rep.updates = append(c.rep.updates, churnUpdate{
			kind: kind, wantRemoved: len(fail), wantRevived: len(restore), stats: r.s.LastUpdate(),
		})
		return nil
	}
	for i := 0; i < epochSingles; i++ {
		v := r.pick(nil)
		if err := step("step", []int32{v}, r.prev); err != nil {
			return err
		}
		r.prev = []int32{v}
	}
	taken := make(map[int32]bool, epochBatch)
	batch := make([]int32, 0, epochBatch)
	for len(batch) < epochBatch {
		v := r.pick(taken)
		taken[v] = true
		batch = append(batch, v)
	}
	if err := step("batch_fail", batch, nil); err != nil {
		return err
	}
	if err := step("batch_restore", nil, batch); err != nil {
		return err
	}
	c.rep.results = []*bfskel.Result{r.s.Result()}
	c.rep.holes = []int{c.holes}
	return nil
}

// check verifies that every update of the epoch flipped exactly the nodes
// it asked for.
func (c *churnInst) check() error {
	for i, u := range c.rep.updates {
		if u.stats.Removed != u.wantRemoved || u.stats.Revived != u.wantRevived {
			return fmt.Errorf("update %d (%s) removed %d/revived %d nodes, asked %d/%d",
				i, u.kind, u.stats.Removed, u.stats.Revived, u.wantRemoved, u.wantRevived)
		}
	}
	return nil
}

func (c *churnInst) report() opReport { return c.rep }

// finish checks that every session's current result equals a from-scratch
// extraction on the mutated graph: sites, cell assignment and skeleton
// edge set.
func (c *churnInst) finish() error {
	for _, r := range []*churnRun{c.main, c.twin} {
		if r == nil {
			continue
		}
		got := r.s.Result()
		want, err := r.net.Extract(c.p)
		if err != nil {
			return fmt.Errorf("from-scratch extract: %w", err)
		}
		if !slices.Equal(got.Sites, want.Sites) {
			return fmt.Errorf("session sites (%d) differ from a from-scratch extract (%d)", len(got.Sites), len(want.Sites))
		}
		if !slices.Equal(got.CellOf, want.CellOf) {
			return fmt.Errorf("session cell assignment differs from a from-scratch extract")
		}
		if !slices.Equal(skeletonEdges(got.Skeleton), skeletonEdges(want.Skeleton)) {
			return fmt.Errorf("session skeleton edges differ from a from-scratch extract")
		}
	}
	return nil
}

func (c *churnInst) describe(o *outcome) {
	if st := c.main.s.Result().Stats; st != nil {
		o.kernels[st.FloodKernel] = true
	}
	o.details["nodes"] = c.main.net.N()
	o.details["avg_degree"] = c.main.net.AvgDegree()
	o.details["epoch"] = fmt.Sprintf("%d single-node steps, one %d-node scattered failure batch and its recovery", epochSingles, epochBatch)
}

// skeletonEdges flattens a skeleton's edge set into sorted (u, v) pairs
// with u < v.
func skeletonEdges(s *bfskel.Skeleton) []int32 {
	type edge struct{ u, v int32 }
	var es []edge
	for _, u := range s.Nodes() {
		for _, v := range s.Neighbors(u) {
			if u < v {
				es = append(es, edge{u, v})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].u != es[j].u {
			return es[i].u < es[j].u
		}
		return es[i].v < es[j].v
	})
	out := make([]int32, 0, 2*len(es))
	for _, e := range es {
		out = append(out, e.u, e.v)
	}
	return out
}

// ---- paper_fields: the paper's 11 networks, centralized and protocol ----

type paperField struct {
	name  string
	net   *bfskel.Network
	x     *bfskel.Extractor
	p     bfskel.Params
	holes int
	ref   *counts
}

type paperInst struct {
	fields []*paperField
	rep    opReport
	// homotopy is the per-field cycle rank over holes of the first op.
	homotopy map[string]string
}

func paperSetup(seed int64, tr *bfskel.Tracer) (instance, *setupLayers, error) {
	var lay *setupLayers
	if tr != nil {
		lay = &setupLayers{}
	}
	pi := &paperInst{}
	for _, sc := range append([]bfskel.Scenario{bfskel.Fig1Scenario()}, bfskel.Fig4Scenarios()...) {
		sc := sc
		net, err := buildNetwork(func() (*bfskel.Network, error) { return bfskel.BuildScenario(sc, seed) }, lay)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		p := sc.Params
		if p.K == 0 {
			p = bfskel.DefaultParams()
		}
		pi.fields = append(pi.fields, &paperField{
			name: sc.Name, net: net, x: net.Extractor(), p: p, holes: net.Spec.Shape.Holes(),
		})
	}
	return pi, lay, nil
}

func (pi *paperInst) op(tr *bfskel.Tracer) error {
	pi.rep = opReport{}
	for _, f := range pi.fields {
		f.x.Tracer = tr
		f.x.CollectMemStats = tr != nil
		end := pi.rep.lap(tr, "paper.extract")
		res, err := f.x.Extract(f.p)
		end()
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		end = pi.rep.lap(tr, "paper.protocol")
		dres, err := bfskel.RunProtocolPhasesObs(f.net, res.EffectiveK, f.p.L, res.EffectiveScope, f.p.Alpha,
			bfskel.ProtocolOptions{Tracer: tr})
		end()
		if err != nil {
			return fmt.Errorf("%s protocol: %w", f.name, err)
		}
		pi.rep.extracts = append(pi.rep.extracts, res)
		pi.rep.holes = append(pi.rep.holes, f.holes)
		pi.rep.protocols = append(pi.rep.protocols, dres)
	}
	pi.rep.results = pi.rep.extracts
	return nil
}

// check verifies, per field, that the protocol elected the centralized
// sites and that the extraction repeats the first op's counts. Homotopy is
// reported, not checked.
func (pi *paperInst) check() error {
	first := pi.homotopy == nil
	if first {
		pi.homotopy = map[string]string{}
	}
	for i, f := range pi.fields {
		res, dres := pi.rep.extracts[i], pi.rep.protocols[i]
		if !slices.Equal(dres.Sites, res.Sites) {
			return fmt.Errorf("%s: protocol elected %d sites, centralized %d", f.name, len(dres.Sites), len(res.Sites))
		}
		c := countsOf(res)
		if f.ref == nil {
			f.ref = &c
		}
		if c != *f.ref {
			return fmt.Errorf("%s: extraction gave %v, first op %v", f.name, c, *f.ref)
		}
		if first {
			pi.homotopy[f.name] = fmt.Sprintf("%d/%d", c.cycleRank, f.holes)
		}
	}
	return nil
}

func (pi *paperInst) report() opReport { return pi.rep }
func (pi *paperInst) finish() error    { return nil }

func (pi *paperInst) describe(o *outcome) {
	for _, res := range pi.rep.extracts {
		o.kernels[res.Stats.FloodKernel] = true
	}
	ok := 0
	for _, dres := range pi.rep.protocols {
		for _, ps := range dres.PhaseStats {
			o.engines[ps.Engine] = true
		}
	}
	for _, f := range pi.fields {
		if f.ref != nil && f.ref.cycleRank == f.holes {
			ok++
		}
	}
	o.details["homotopy_ok"] = fmt.Sprintf("%d of %d", ok, len(pi.fields))
	o.details["homotopy_cycles_over_holes"] = pi.homotopy
}
