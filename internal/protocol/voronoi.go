package protocol

import (
	"bfskel/internal/core"
	"bfskel/internal/graph"
	"bfskel/internal/simnet"
)

// voronoiProgram implements the Voronoi cell construction (paper
// Sec. III-B): the sites flood simultaneously; every node keeps its nearest
// site(s), records any site whose distance is within Alpha of the nearest,
// remembers the reverse-path parent, and forwards each new or improved
// record once. Distances travel in the payload, and improved (shorter)
// arrivals update and re-forward, so the final records equal the
// centralized pruned multi-source BFS even when message timing is jittered;
// when the nearest distance shrinks, records that fall out of the Alpha
// window are dropped.
// Batches travel as kindVoronoiBatch packed words — one word per
// (site, dist) entry — built in the engine's scratch buffer. The records
// are kept in their output form, so runVoronoi hands them over uncopied.
type voronoiProgram struct {
	alpha   int32
	site    bool
	dmin    int32
	records []core.SiteDist // recorded sites with distance and reverse-path parent
}

var _ simnet.Program = (*voronoiProgram)(nil)

func (p *voronoiProgram) Init(ctx *simnet.Context) {
	p.dmin = -1
	if p.site {
		p.dmin = 0
		p.records = append(p.records, core.SiteDist{Site: int32(ctx.ID()), D: 0, Parent: int32(ctx.ID())})
		out := ctx.Scratch()
		*out = append(*out, packPair(int32(ctx.ID()), 0))
		ctx.BroadcastPacked(kindVoronoiBatch, *out)
	}
}

func (p *voronoiProgram) Step(ctx *simnet.Context, inbox []simnet.Envelope) {
	out := ctx.Scratch()
	for _, env := range inbox {
		kind, ws, _ := env.Packed()
		if kind != kindVoronoiBatch {
			continue
		}
		for _, w := range ws {
			site, dist := unpackPair(w)
			p.learn(out, site, dist, int32(env.From))
		}
	}
	if len(*out) > 0 {
		ctx.BroadcastPacked(kindVoronoiBatch, *out)
	}
}

// learn applies the Alpha-window accept/drop rule to one announced (site,
// dist) wavefront entry and queues accepted entries on out for
// re-forwarding.
func (p *voronoiProgram) learn(out *[]uint64, site, dist, from int32) {
	d := dist + 1
	if p.dmin != -1 && d > p.dmin+p.alpha {
		return
	}
	if !p.accept(site, d, from) {
		return
	}
	if p.dmin == -1 || d < p.dmin {
		p.dmin = d
		p.dropStale()
	}
	*out = append(*out, packPair(site, d))
}

// accept records or improves the (site, dist) entry; it reports whether the
// entry was new or shorter than what was known.
func (p *voronoiProgram) accept(site, dist, parent int32) bool {
	for i := range p.records {
		if p.records[i].Site != site {
			continue
		}
		if p.records[i].D <= dist {
			return false
		}
		p.records[i].D = dist
		p.records[i].Parent = parent
		return true
	}
	p.records = append(p.records, core.SiteDist{Site: site, D: dist, Parent: parent})
	return true
}

// dropStale removes records outside the Alpha window after dmin shrank.
func (p *voronoiProgram) dropStale() {
	kept := p.records[:0]
	for _, r := range p.records {
		if r.D <= p.dmin+p.alpha {
			kept = append(kept, r)
		}
	}
	p.records = kept
}

// runVoronoi executes the Voronoi flooding phase.
func runVoronoi(g *graph.Graph, sites []int32, alpha int32, po phaseOpts) ([][]core.SiteDist, simnet.Stats, error) {
	isSite := make([]bool, g.N())
	for _, s := range sites {
		isSite[s] = true
	}
	nodes := make([]voronoiProgram, g.N())
	programs := make([]simnet.Program, g.N())
	for v := range nodes {
		nodes[v] = voronoiProgram{alpha: alpha, site: isSite[v]}
		programs[v] = &nodes[v]
	}
	sim, err := simnet.New(g, programs)
	if err != nil {
		return nil, simnet.Stats{}, err
	}
	po.configure(sim)
	stats, err := sim.Run()
	if err != nil {
		return nil, stats, err
	}
	records := make([][]core.SiteDist, g.N())
	for v := range nodes {
		if len(nodes[v].records) > 0 {
			records[v] = nodes[v].records
		}
	}
	return records, stats, nil
}
